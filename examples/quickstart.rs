//! Quickstart: parse an XML document, run a keyword query, print the
//! meaningful fragments.
//!
//! ```sh
//! cargo run --example quickstart
//! cargo run --example quickstart -- "skyline query"
//! ```

use xks::core::{AlgorithmKind, SearchEngine, SearchRequest};
use xks::xmltree::parse;

const SAMPLE: &str = r#"
<Publications>
  <title>VLDB</title>
  <year>2008</year>
  <Articles>
    <article>
      <authors><author><name>Liu</name></author></authors>
      <title>Relevant keyword match search in XML</title>
      <abstract>An effective approach to keyword search in XML data</abstract>
      <references>
        <ref>Liu and Chen: Reasoning about relevant matches for XML keyword search</ref>
      </references>
    </article>
    <article>
      <authors>
        <author><name>Wong</name></author>
        <author><name>Fu</name></author>
      </authors>
      <title>Efficient Skyline Query with Variable User Preferences</title>
      <abstract>We propose dynamic skyline query processing</abstract>
    </article>
  </Articles>
</Publications>
"#;

fn main() {
    let query_text = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "xml keyword search".to_owned());

    let tree = parse(SAMPLE).expect("sample document parses");
    println!("Document ({} nodes):\n{tree}", tree.len());

    let engine = SearchEngine::new(tree);
    let tree = engine.parsed_tree().expect("built by SearchEngine::new");
    // The operator grammar understands "quoted phrases", -exclusions,
    // and label:word filters alongside plain keywords.
    let request = match SearchRequest::parse(&query_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    println!("Query: {}\n", request.spec());
    for (name, kind) in [
        ("ValidRTF", AlgorithmKind::ValidRtf),
        ("MaxMatch (revised)", AlgorithmKind::MaxMatchRtf),
    ] {
        let response = engine
            .execute(&request.clone().algorithm(kind))
            .expect("in-memory backend cannot fail");
        println!(
            "== {name}: {} meaningful fragment(s) in {:?}",
            response.hits.len(),
            response.timings.total()
        );
        for hit in &response.hits {
            println!("-- fragment anchored at {}:", hit.fragment.anchor);
            print!("{}", hit.fragment.render(tree));
        }
        println!();
    }
}

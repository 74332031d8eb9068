//! One pipeline, many sources: every `CorpusSource` over the same
//! corpus answers the same facts, and every engine built over them
//! returns the same bytes.
//!
//! `TreeCorpus` reads a parsed tree directly and is the oracle;
//! `MemoryCorpus` goes through the shredder and a 3-way `ShardSet`
//! through the partitioner as well. The fact table walks every element
//! and every vocabulary word; the engine table replays the 43-query
//! Figure 5/6 workload on all three algorithms.

mod common;

use std::sync::Arc;

use common::ALGORITHMS;
use xks::core::wire::response_json;
use xks::core::{CorpusSource, MemoryCorpus, SearchEngine, SearchRequest, ShardSet, TreeCorpus};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::store::json::{self, Value};
use xks::store::{partition, shred};
use xks::xmltree::fixtures::{publications, team};
use xks::xmltree::{Dewey, XmlTree};

fn shard_set(tree: &XmlTree, shards: usize) -> ShardSet {
    let parts = partition(&shred(tree), shards);
    let first_docs: Vec<u32> = parts.iter().map(|p| p.first_doc).collect();
    let sources: Vec<Arc<dyn CorpusSource>> = parts
        .into_iter()
        .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as Arc<dyn CorpusSource>)
        .collect();
    ShardSet::new(sources, first_docs).unwrap()
}

#[test]
fn sources_agree_fact_by_fact() {
    let absent_node: Dewey = "0.9999.9".parse().unwrap();
    for (name, tree) in [
        ("publications", publications()),
        ("team", team()),
        ("dblp", generate_dblp(&DblpConfig::with_records(120, 42))),
    ] {
        let oracle = TreeCorpus::new(tree.clone());
        let memory = MemoryCorpus::new(shred(&tree));
        let sharded = shard_set(&tree, 3);
        // The partitioner clamps to one shard per top-level document.
        assert!((2..=3).contains(&sharded.shard_count()), "{name}");
        let others: [(&str, &dyn CorpusSource); 2] = [("memory", &memory), ("sharded", &sharded)];

        let deweys = tree.preorder().map(|id| tree.dewey(id));
        for dewey in deweys.chain([&absent_node]) {
            let label = oracle.try_element_label(dewey).unwrap();
            let knode = oracle.try_keyword_node(dewey).unwrap();
            assert_eq!(label.is_some(), dewey != &absent_node, "{name} {dewey}");
            for (backend, source) in others {
                let at = format!("{name}/{backend} @ {dewey}");
                assert_eq!(source.try_element_label(dewey).unwrap(), label, "{at}");
                assert_eq!(source.try_keyword_node(dewey).unwrap(), knode, "{at}");
            }
        }

        let vocabulary = oracle.index().frequencies().map(|(word, _)| word);
        for word in vocabulary.chain(["unobtainium"]) {
            let postings = oracle.try_keyword_deweys(word).unwrap();
            let stats = oracle.keyword_stats(word);
            assert_eq!(stats.unwrap().postings, postings.len() as u64, "{name}");
            for (backend, source) in others {
                let at = format!("{name}/{backend} {word:?}");
                assert_eq!(source.try_keyword_deweys(word).unwrap(), postings, "{at}");
                assert_eq!(source.keyword_stats(word), stats, "{at}");
            }
        }

        for label in 0..=tree.labels().len() as u32 {
            let label_name = oracle.label_name(label);
            assert_eq!(label_name.is_some(), (label as usize) < tree.labels().len());
            for (backend, source) in others {
                assert_eq!(source.label_name(label), label_name, "{name}/{backend}");
            }
        }
        for (backend, source) in others {
            assert_eq!(source.node_count(), oracle.node_count(), "{name}/{backend}");
        }
    }
}

/// The wire form of one response with the wall-clock block removed,
/// and its hit count.
fn comparable(engine: &SearchEngine, request: &SearchRequest) -> (String, usize) {
    let response = engine.execute(request).expect("executes");
    let body = json::to_string(&response_json(engine, request, &response, usize::MAX));
    let Value::Obj(mut fields) = json::parse(&body).expect("a response is valid JSON") else {
        panic!("a response renders as a JSON object");
    };
    fields.remove("timings_us");
    (json::to_string(&Value::Obj(fields)), response.hits.len())
}

#[test]
fn engines_agree_byte_for_byte_on_the_paper_workload() {
    let mut queries = 0;
    let mut hits = 0;
    for (name, tree, workload) in [
        (
            "dblp",
            generate_dblp(&DblpConfig::with_records(400, 42)),
            dblp_workload(),
        ),
        (
            "xmark",
            generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 30, 42)),
            xmark_workload(),
        ),
    ] {
        let oracle = SearchEngine::new(tree.clone());
        let memory = SearchEngine::from_owned_source(MemoryCorpus::new(shred(&tree)));
        let others = [
            ("memory", &memory),
            (
                "shards/1",
                &SearchEngine::from_shard_set(shard_set(&tree, 3)).with_scatter_threads(1),
            ),
            (
                "shards/2",
                &SearchEngine::from_shard_set(shard_set(&tree, 3)).with_scatter_threads(2),
            ),
        ];
        assert!(oracle.corpus().is_some(), "{name}/tree");
        for (backend, engine) in others {
            assert!(engine.corpus().is_some(), "{name}/{backend}");
        }

        for (abbrev, keywords) in &workload {
            queries += 1;
            let request = SearchRequest::parse(keywords).unwrap();
            assert_eq!(
                oracle.explain(&request).unwrap(),
                memory.explain(&request).unwrap(),
                "{name}/{abbrev}: explain"
            );
            for kind in ALGORITHMS {
                let request = request.clone().algorithm(kind);
                let want = comparable(&oracle, &request);
                hits += want.1;
                for (backend, engine) in others {
                    assert_eq!(
                        comparable(engine, &request),
                        want,
                        "{name}/{abbrev}/{kind:?} on {backend}"
                    );
                }
            }
        }
    }
    assert_eq!(queries, 43, "the Figure 5/6 workload");
    assert!(hits > 0, "the workload must find something to compare");
}

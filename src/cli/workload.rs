//! `xks workload` — list, inspect, and materialize the scenario cells
//! of the workload matrix (see docs/WORKLOADS.md). Generated corpora
//! and query files feed straight into `xks bench`/`xks search`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use xks::core::wire::obj;
use xks::datagen::scenario::{QueryClass, ScenarioSpec};
use xks::store::json::Value;
use xks::xmltree::writer::to_xml_compact;

use super::{print_json, Args, Format};

pub fn run(args: &Args) -> Result<(), String> {
    let cell = |name: &String| {
        ScenarioSpec::parse(name)
            .ok_or_else(|| format!("unknown workload cell {name:?} (try: xks workload list)"))
    };
    let rest = args.positionals.get(1..).unwrap_or_default();
    match args.positionals.first().map(String::as_str) {
        Some("list") => {
            let [] = args.expect_positionals(rest)?;
            list(args.format()?);
        }
        Some("show") => {
            let [name] = args.expect_positionals(rest)?;
            show(&cell(name)?, args.format()?);
        }
        Some("generate") => {
            let [which] = args.expect_positionals(rest)?;
            let specs = if which == "all" {
                ScenarioSpec::matrix()
            } else {
                vec![cell(which)?]
            };
            generate(&specs, args.str("out").unwrap_or("."))?;
        }
        _ => return Err(args.usage_error("needs one of its subcommands")),
    }
    Ok(())
}

fn cell_meta(spec: &ScenarioSpec) -> BTreeMap<String, Value> {
    obj([
        ("name", Value::Str(spec.name())),
        ("scale", Value::Num(u64::from(spec.scale))),
        ("shape", Value::Str(spec.shape.token().to_owned())),
        ("skew", Value::Str(spec.skew.token().to_owned())),
        ("tenancy", Value::Str(spec.tenancy.token())),
        ("records", Value::Num(spec.records() as u64)),
    ])
}

fn list(format: Format) {
    let matrix = ScenarioSpec::matrix();
    match format {
        Format::Json => {
            let cells = matrix.iter().map(|spec| Value::Obj(cell_meta(spec)));
            print_json(&Value::Obj(obj([
                ("schema", Value::Str("xks-workload-list/1".to_owned())),
                ("cells", Value::Arr(cells.collect())),
            ])));
        }
        Format::Text => {
            println!(
                "{:<26} {:>5}  {:<5} {:<8} {:<8} {:>8}",
                "cell", "scale", "shape", "skew", "tenancy", "records"
            );
            for spec in &matrix {
                println!(
                    "{:<26} {:>5}  {:<5} {:<8} {:<8} {:>8}",
                    spec.name(),
                    spec.scale,
                    spec.shape.token(),
                    spec.skew.token(),
                    spec.tenancy.token(),
                    spec.records(),
                );
            }
        }
    }
}

fn show(spec: &ScenarioSpec, format: Format) {
    let scenario = spec.generate();
    let max_depth = scenario
        .tree
        .preorder()
        .map(|id| scenario.tree.depth(id))
        .max()
        .unwrap_or(0);
    match format {
        Format::Json => {
            let classes = QueryClass::ALL.iter().map(|class| {
                let queries = scenario.queries_of(*class).into_iter();
                Value::Obj(obj([
                    ("class", Value::Str(class.name().to_owned())),
                    (
                        "queries",
                        Value::Arr(queries.map(|q| Value::Str(q.to_owned())).collect()),
                    ),
                ]))
            });
            let mut root = cell_meta(spec);
            root.extend(obj([
                ("schema", Value::Str("xks-workload-show/1".to_owned())),
                ("elements", Value::Num(scenario.tree.len() as u64)),
                ("tenants", Value::Num(scenario.tenants as u64)),
                ("max_depth", Value::Num(max_depth as u64)),
                ("classes", Value::Arr(classes.collect())),
            ]));
            print_json(&Value::Obj(root));
        }
        Format::Text => {
            println!(
                "{}: {} records, {} elements, {} tenant(s), max depth {}",
                spec.name(),
                scenario.records,
                scenario.tree.len(),
                scenario.tenants,
                max_depth,
            );
            for class in QueryClass::ALL {
                let queries = scenario.queries_of(class);
                println!("  {} ({}):", class.name(), queries.len());
                for q in queries {
                    println!("    {q}");
                }
            }
        }
    }
}

fn generate(specs: &[ScenarioSpec], out: &str) -> Result<(), String> {
    let dir = Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out}: {e}"))?;
    for spec in specs {
        let name = spec.name();
        let scenario = spec.generate();

        let xml_path = dir.join(format!("{name}.xml"));
        std::fs::write(&xml_path, to_xml_compact(&scenario.tree))
            .map_err(|e| format!("cannot write {}: {e}", xml_path.display()))?;

        // The query file doubles as an `xks bench --queries` workload:
        // class markers are comments, which the bench reader skips.
        let mut queries = format!("# workload cell {name} (seed {:#x})\n", spec.seed);
        for class in QueryClass::ALL {
            let _ = writeln!(queries, "# class: {}", class.name());
            for q in scenario.queries_of(class) {
                let _ = writeln!(queries, "{q}");
            }
        }
        let q_path = dir.join(format!("{name}.queries.txt"));
        std::fs::write(&q_path, queries)
            .map_err(|e| format!("cannot write {}: {e}", q_path.display()))?;

        eprintln!(
            "wrote {} ({} records, {} elements) and {} ({} queries)",
            xml_path.display(),
            scenario.records,
            scenario.tree.len(),
            q_path.display(),
            scenario.queries.len(),
        );
    }
    Ok(())
}

//! Black-box tests of the `xks` CLI binary.

use std::process::Command;

fn xks() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xks"))
}

fn sample_file() -> std::path::PathBuf {
    // Written once per test process: tests run on parallel threads, and
    // rewriting the file under a child `xks` that is reading it hands
    // that child an empty or half-written document.
    static WRITTEN: std::sync::Once = std::sync::Once::new();
    let dir = std::env::temp_dir().join("xks-cli-test");
    let path = dir.join("team.xml");
    WRITTEN.call_once(|| {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            "<team><name>Grizzlies</name><players>\
             <player><name>Gassol</name><position>forward</position></player>\
             <player><name>Miller</name><position>guard</position></player>\
             <player><name>Warrick</name><position>forward</position></player>\
             </players></team>",
        )
        .unwrap();
    });
    path
}

#[test]
fn search_demonstrates_deduplication() {
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["grizzlies position", "--xml"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The duplicate forward player is pruned: exactly two positions.
    assert_eq!(stdout.matches("<position>").count(), 2, "{stdout}");
    assert!(stdout.contains("forward") && stdout.contains("guard"));
}

#[test]
fn search_maxmatch_keeps_duplicates() {
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["grizzlies position", "--xml", "--algo", "maxmatch"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("<position>").count(), 3, "{stdout}");
}

#[test]
fn search_threads_flag_matches_single_thread() {
    // Three queries so `--threads 3` actually spawns workers (the
    // executor clamps to the batch size); results must come back in
    // input order, byte-identical to the single-thread run.
    let file = sample_file();
    let run = |threads: &str| {
        let out = xks()
            .args(["search"])
            .arg(&file)
            .args([
                "grizzlies position",
                "forward",
                "guard miller",
                "--threads",
                threads,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let sequential = run("1");
    assert_eq!(
        sequential.matches("## query:").count(),
        3,
        "one header per query:\n{sequential}"
    );
    assert_eq!(sequential, run("3"), "--threads must not change results");
}

#[test]
fn bench_batch_mode_reports_throughput() {
    let dir = std::env::temp_dir().join("xks-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = sample_file();
    let index = dir.join("team.xks");
    let queries = dir.join("queries.txt");
    std::fs::write(
        &queries,
        "# comment lines and blanks are skipped\n\n\
         grizzlies position\nforward\nguard miller\n",
    )
    .unwrap();

    let out = xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&index)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let out = xks()
        .args(["bench", "--index"])
        .arg(&index)
        .args(["--queries"])
        .arg(&queries)
        .args(["--threads", "2", "--sweeps", "2"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 3 queries x 2 sweeps through 2 threads.
    assert!(
        stdout.contains("6 queries (3 x 2 sweeps), 2 thread(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("queries/sec"), "{stdout}");
    assert!(stdout.contains("work split"), "{stdout}");
}

#[test]
fn search_format_json_matches_documented_schema() {
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["grizzlies position", "--format", "json", "--top-k", "5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).expect("stdout is one JSON document");

    // Schema of docs/API.md: results[] of {query, algorithm, hits,
    // stats, timings_us}.
    let results = value.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 1);
    let result = &results[0];
    assert_eq!(
        result.get("query").unwrap().as_str(),
        Some("grizzlies position")
    );
    assert_eq!(result.get("algorithm").unwrap().as_str(), Some("valid"));

    let hits = result.get("hits").unwrap().as_arr().unwrap();
    assert_eq!(hits.len(), 1, "one meaningful fragment for the team doc");
    let hit = &hits[0];
    assert!(hit.get("anchor").unwrap().as_str().is_some());
    // --top-k implies ranking: a numeric score plus its signals.
    let score = hit.get("score").unwrap().as_f64().expect("ranked hit");
    assert!((0.0..=1.0).contains(&score));
    assert_eq!(hit.get("signals").unwrap().as_arr().unwrap().len(), 3);
    let nodes = hit.get("nodes").unwrap().as_arr().unwrap();
    assert!(!nodes.is_empty());
    for node in nodes {
        assert!(node.get("dewey").unwrap().as_str().is_some());
        assert!(node.get("label").unwrap().as_str().is_some());
        assert!(matches!(
            node.get("keyword").unwrap(),
            xks::store::json::Value::Bool(_)
        ));
    }
    // The duplicate forward player is pruned even through JSON: two
    // position nodes.
    let positions = nodes
        .iter()
        .filter(|n| n.get("label").unwrap().as_str() == Some("position"))
        .count();
    assert_eq!(positions, 2);

    let stats = result.get("stats").unwrap();
    assert!(matches!(
        stats.get("truncated").unwrap(),
        xks::store::json::Value::Bool(false)
    ));
    assert_eq!(stats.get("total_before_top_k").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("filtered_out").unwrap().as_u64(), Some(0));
    assert_eq!(
        stats.get("dropped_terms").unwrap().as_arr().unwrap().len(),
        0
    );

    let timings = result.get("timings_us").unwrap();
    for stage in [
        "get_keyword_nodes",
        "get_lca",
        "get_rtf",
        "prune_rtf",
        "total",
    ] {
        assert!(timings.get(stage).unwrap().as_u64().is_some(), "{stage}");
    }
}

#[test]
fn search_top_k_truncates_and_reports() {
    // "position" alone anchors one fragment per player-subtree match;
    // use the multi-anchor query "forward" (two forwards) to see
    // truncation.
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["forward", "--format", "json", "--top-k", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    let result = &value.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(result.get("hits").unwrap().as_arr().unwrap().len(), 1);
    let stats = result.get("stats").unwrap();
    assert!(matches!(
        stats.get("truncated").unwrap(),
        xks::store::json::Value::Bool(true)
    ));
    assert_eq!(stats.get("total_before_top_k").unwrap().as_u64(), Some(2));
}

#[test]
fn search_limit_caps_json_hits_and_reports_omissions() {
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["forward", "--format", "json", "--limit", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    let result = &value.get("results").unwrap().as_arr().unwrap()[0];
    // Two forwards match; --limit 1 emits one hit and says so.
    assert_eq!(result.get("hits").unwrap().as_arr().unwrap().len(), 1);
    assert_eq!(result.get("hits_omitted").unwrap().as_u64(), Some(1));
    // The engine-side stats still describe the full response.
    assert_eq!(
        result
            .get("stats")
            .unwrap()
            .get("total_before_top_k")
            .unwrap()
            .as_u64(),
        Some(2)
    );
}

#[test]
fn search_operator_grammar_reaches_the_cli() {
    // Exclusion: dropping fragments whose subtree contains "gassol".
    let run = |query: &str| {
        let out = xks()
            .args(["search"])
            .arg(sample_file())
            .args([query, "--format", "json"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        xks::store::json::parse(stdout.trim()).unwrap()
    };
    let hits_of = |value: &xks::store::json::Value| {
        value.get("results").unwrap().as_arr().unwrap()[0]
            .get("hits")
            .unwrap()
            .as_arr()
            .unwrap()
            .len()
    };
    // "grizzlies forward" anchors one fragment at the team root, whose
    // subtree contains "gassol" — the exclusion rejects it.
    assert_eq!(hits_of(&run("grizzlies forward")), 1);
    let filtered = run("grizzlies forward -gassol");
    let result = &filtered.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(result.get("hits").unwrap().as_arr().unwrap().len(), 0);
    assert_eq!(
        result
            .get("stats")
            .unwrap()
            .get("filtered_out")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    assert_eq!(
        result.get("query").unwrap().as_str(),
        Some("grizzlies forward -gassol"),
        "canonical grammar rendering round-trips through the CLI"
    );
    // Exclusions scope to the anchor subtree: "forward" alone anchors
    // at the position leaves, which never contain "gassol".
    assert_eq!(hits_of(&run("forward -gassol")), 2);

    // A label filter: position:forward keeps only nodes labeled
    // position; name:forward matches nothing.
    let labeled = run("position:forward");
    assert_eq!(
        labeled.get("results").unwrap().as_arr().unwrap()[0]
            .get("hits")
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        2
    );
    let impossible = run("name:forward");
    assert_eq!(
        impossible.get("results").unwrap().as_arr().unwrap()[0]
            .get("hits")
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn search_bad_grammar_fails_cleanly() {
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["\"unclosed phrase"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unclosed"), "{stderr}");
}

#[test]
fn bench_format_json_reports_throughput() {
    let dir = std::env::temp_dir().join("xks-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = sample_file();
    let queries = dir.join("queries-json.txt");
    std::fs::write(&queries, "grizzlies position\nforward\n").unwrap();

    let out = xks()
        .args(["bench"])
        .arg(&xml)
        .args(["--queries"])
        .arg(&queries)
        .args(["--sweeps", "1", "--format", "json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    assert_eq!(value.get("queries").unwrap().as_u64(), Some(2));
    assert_eq!(value.get("sweeps").unwrap().as_u64(), Some(1));
    assert!(value.get("queries_per_sec").unwrap().as_f64().unwrap() > 0.0);
    assert!(value.get("fragments").unwrap().as_u64().is_some());
}

#[test]
fn compare_format_json() {
    let out = xks()
        .args(["compare"])
        .arg(sample_file())
        .args(["grizzlies position", "--format", "json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    assert_eq!(value.get("rtf_count").unwrap().as_u64(), Some(1));
    for field in ["cfr", "apr", "apr_prime", "max_apr"] {
        assert!(value.get(field).unwrap().as_f64().is_some(), "{field}");
    }
}

#[test]
fn compare_prints_effectiveness() {
    let out = xks()
        .args(["compare"])
        .arg(sample_file())
        .args(["grizzlies position"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CFR"), "{stdout}");
    assert!(stdout.contains("Max APR"), "{stdout}");
}

#[test]
fn stats_reports_counts() {
    let out = xks().args(["stats"]).arg(sample_file()).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nodes          : 12"), "{stdout}");
}

#[test]
fn bad_usage_fails_cleanly() {
    for args in [
        vec![],
        vec!["searchx"],
        vec!["search", "/missing.xml", "kw"],
    ] {
        let out = xks().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
    // A flag the command does not take is refused, not read as a
    // boolean (which turned its value into a second query) or ignored.
    let file = sample_file();
    let file = file.to_str().unwrap();
    for (args, expected) in [
        (
            vec!["search", file, "grizzlies position", "--topk", "5"],
            "search: unknown flag --topk",
        ),
        (
            vec!["stats", file, "--treads", "4"],
            "stats: unknown flag --treads",
        ),
        (
            vec!["compare", file, "grizzlies position", "--rank"],
            "compare: unknown flag --rank",
        ),
        // Sharded engines run each query on one thread: the per-query
        // fan-out flag is gone.
        (
            vec!["search", file, "grizzlies", "--shard-threads", "2"],
            "search: unknown flag --shard-threads",
        ),
        // A repeated flag is refused, not resolved to its first value
        // with the second never validated.
        (
            vec![
                "search",
                file,
                "grizzlies",
                "--algo",
                "slca",
                "--algo",
                "bogus",
            ],
            "search: --algo given more than once",
        ),
        // Surplus positionals are refused wherever the shape is fixed.
        (
            vec!["workload", "list", "extra", "junk"],
            "workload: takes 1 positional argument(s), got 3",
        ),
        (
            vec!["workload", "show", "s1-flat-zipf-single", "extra"],
            "workload: takes 2 positional argument(s), got 3",
        ),
        (
            vec!["workload", "generate", "s1-flat-zipf-single", "extra"],
            "workload: takes 2 positional argument(s), got 3",
        ),
        (
            vec!["compact", "--corpus", "/nonexistent", "extra"],
            "compact: takes 0 positional argument(s), got 1",
        ),
        (vec!["help", "searchx"], "unknown command \"searchx\""),
    ] {
        let out = xks().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "args {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "args {args:?} ran anyway");
    }
    // No command at all is told apart from a bad one.
    assert_eq!(xks().output().unwrap().status.code(), Some(2));
}

/// `xks <args>` must succeed; returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = xks().args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "xks {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// Every `--flag` spelled in `text` (a help block, a shell line).
fn flags_in(text: &str) -> Vec<String> {
    let is_name = |c: char| c.is_ascii_lowercase() || c == '-';
    text.split(|c: char| c.is_whitespace() || "[]|`()".contains(c))
        .filter_map(|word| word.strip_prefix("--"))
        .map(|name| format!("--{}", name.trim_end_matches(|c| !is_name(c))))
        .collect()
}

/// The command names `xks help` lists, in table order.
fn listed_commands() -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in stdout_of(&["help"]).lines() {
        if let Some(rest) = line.strip_prefix("  xks ") {
            let name = rest.split(' ').next().unwrap().to_owned();
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names
}

/// Help is generated from the table the parser enforces: whatever
/// `xks help <command>` lists, the command accepts, `--help` prints the
/// same block, and the four flags the hand-kept usage text had lost are
/// back.
#[test]
fn help_lists_what_the_parser_accepts() {
    let commands = listed_commands();
    let known = "search serve explain bench compare stats build-index index-stats verify \
                 insert delete compact workload help";
    for name in known.split(' ') {
        assert!(commands.iter().any(|c| c == name), "{name} not in xks help");
    }
    let all = stdout_of(&["help"]);
    for command in &commands {
        let block = stdout_of(&["help", command]);
        assert!(block.starts_with("usage:\n  xks "), "{command}: {block}");
        assert_eq!(stdout_of(&[command, "--help"]), block, "{command} --help");
        assert!(
            all.contains(block.trim_start_matches("usage:\n")),
            "{command}"
        );
        // No listed flag starts a server or writes a file here: without a
        // backend (or with the dummy value) every command stops first.
        for flag in flags_in(&block) {
            let out = xks().args([command, &flag, "x"]).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !stderr.contains("unknown flag"),
                "xks help {command} lists {flag}, the parser refuses it: {stderr}"
            );
        }
    }
    for (command, listed) in [
        ("serve", "[--port N]"),
        ("search", "[--timeout-ms N]"),
        ("explain", "[--corpus <dir>]"),
        ("verify", "\n  xks verify <file.xks|file.xksm>\n"),
    ] {
        let block = stdout_of(&["help", command]);
        assert!(
            block.contains(listed),
            "{command} lacks {listed:?}: {block}"
        );
    }
}

/// The shell lines the docs show name real commands and only flags
/// `xks help <command>` lists; so does every inline `` `--flag` `` of
/// the prose, bar the named flags of other binaries. docs/SERVER.md's
/// flag table (which carries the defaults) covers exactly the flags
/// `xks serve` takes beyond its backend.
#[test]
fn documented_command_lines_match_help() {
    /// Flags the prose spells for binaries other than `xks`.
    const OTHER_BINARIES: &[&str] = &["--seed"];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md"), root.join("PERFORMANCE.md")];
    for entry in std::fs::read_dir(root.join("docs")).unwrap() {
        docs.push(entry.unwrap().path());
    }
    let commands = listed_commands();
    let mut any_help: Vec<String> = Vec::new();
    for command in &commands {
        any_help.extend(flags_in(&stdout_of(&["help", command])));
    }
    let mut checked = 0;
    for doc in docs
        .iter()
        .filter(|d| d.extension().is_some_and(|e| e == "md"))
    {
        let text = std::fs::read_to_string(doc).unwrap().replace("\\\n", " ");
        let mut fenced = false;
        for line in text.lines() {
            if line.starts_with("```") {
                fenced = !fenced;
                continue;
            }
            // Odd pieces of a split on backticks are inline code spans.
            let spans = line.split('`').skip(1).step_by(2);
            for span in spans.filter(|s| s.starts_with("--") && !fenced) {
                let flag = &flags_in(span)[0];
                assert!(
                    any_help.contains(flag) || OTHER_BINARIES.contains(&flag.as_str()),
                    "{}: `{span}` is no flag of any xks command",
                    doc.display()
                );
            }
            let line = line.strip_prefix("target/release/").unwrap_or(line);
            let Some(line) = line.strip_prefix("xks ").filter(|_| fenced) else {
                continue;
            };
            let line = line.split(" #").next().unwrap();
            let command = line.split_whitespace().next().unwrap();
            let shown = format!("{}: xks {line}", doc.display());
            assert!(commands.iter().any(|c| c == command), "{shown}");
            let listed = flags_in(&stdout_of(&["help", command]));
            for flag in flags_in(line) {
                assert!(listed.contains(&flag), "{shown}: {flag} is not a flag");
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 40,
        "only {checked} documented command lines found"
    );

    let server = std::fs::read_to_string(root.join("docs/SERVER.md")).unwrap();
    let mut table: Vec<String> = Vec::new();
    for row in server.lines().filter(|l| l.starts_with("| `--")) {
        table.extend(flags_in(row.split(" | ").next().unwrap()));
    }
    let mut listed = flags_in(&stdout_of(&["help", "serve"]));
    listed.retain(|flag| flag != "--index" && flag != "--corpus");
    table.sort();
    listed.sort();
    assert_eq!(table, listed, "docs/SERVER.md flag table vs xks help serve");
}

#[test]
fn sharded_index_matches_monolithic_through_the_cli() {
    let dir = std::env::temp_dir().join("xks-cli-test-sharded");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("corpus.xml");
    std::fs::write(
        &xml,
        "<dblp>\
         <article><title>xml keyword search</title><author>liu</author></article>\
         <article><title>skyline query</title><author>chen</author></article>\
         <article><title>keyword search relational</title><author>liu</author></article>\
         <article><title>spatial index</title><author>kim</author></article>\
         </dblp>",
    )
    .unwrap();
    let mono = dir.join("corpus.xks");
    let manifest = dir.join("corpus.xksm");

    let out = xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&mono)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&manifest)
        .args(["--shards", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 shard(s)"), "{stderr}");

    // search --index sniffs the magic: the manifest and the monolithic
    // index must produce identical results (hits and stats — the
    // timings_us block is wall clock and may differ).
    let run = |index: &std::path::Path| {
        let out = xks()
            .args(["search", "--index"])
            .arg(index)
            .args(["keyword search", "liu", "--format", "json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
        let results = value.get("results").unwrap().as_arr().unwrap();
        results
            .iter()
            .map(|r| {
                // `shards_skipped` is honestly backend-dependent —
                // only a sharded backend has shards to skip — so it is
                // asserted separately, not in the byte-equality check.
                let mut stats = r.get("stats").unwrap().clone();
                let skipped = match &mut stats {
                    xks::store::json::Value::Obj(map) => map.remove("shards_skipped").unwrap(),
                    other => panic!("stats is not an object: {other:?}"),
                };
                (
                    xks::store::json::to_string(r.get("hits").unwrap()),
                    xks::store::json::to_string(&stats),
                    xks::store::json::to_string(&skipped),
                )
            })
            .collect::<Vec<_>>()
    };
    let mono_out = run(&mono);
    assert_eq!(mono_out.len(), 2, "one result per query");
    let sharded_out = run(&manifest);
    for ((m_hits, m_stats, m_skipped), (s_hits, s_stats, _)) in mono_out.iter().zip(&sharded_out) {
        assert_eq!(m_hits, s_hits, "sharded hits");
        assert_eq!(m_stats, s_stats, "sharded stats");
        assert_eq!(m_skipped, "0", "monolithic index never skips shards");
    }
}

#[test]
fn explain_reports_the_plan_on_text_and_json() {
    let dir = std::env::temp_dir().join("xks-cli-test-explain");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("skew.xml");
    // 20 "common" occurrences vs 1 "rare": enough skew for the
    // planner to pick the galloping strategy with "rare" driving.
    let mut doc = String::from("<lib>");
    for i in 0..20 {
        doc.push_str(&format!("<b><t>common w{i}</t></b>"));
    }
    doc.push_str("<b><t>common rare</t></b></lib>");
    std::fs::write(&xml, doc).unwrap();
    let index = dir.join("skew.xks");
    let out = xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&index)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = xks()
        .args(["explain", "common rare", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("strategy gallop"), "{text}");
    assert!(text.contains("driver: \"rare\""), "{text}");
    // Rarest-first: "rare" must be listed before "common".
    let rare_at = text.find("1. rare").expect("rare listed first");
    let common_at = text.find("2. common").expect("common second");
    assert!(rare_at < common_at, "{text}");

    let out = xks()
        .args(["explain", "common rare", "--index"])
        .arg(&index)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(
        value.get("strategy").unwrap(),
        &xks::store::json::Value::Str("gallop".to_owned())
    );
    let terms = value.get("terms").unwrap().as_arr().unwrap();
    assert_eq!(terms.len(), 2);
    assert_eq!(
        terms[0].get("keyword").unwrap(),
        &xks::store::json::Value::Str("rare".to_owned())
    );
    assert_eq!(
        terms[0].get("postings").unwrap(),
        &xks::store::json::Value::Num(1)
    );
    assert_eq!(
        terms[0].get("doc_freq").unwrap(),
        &xks::store::json::Value::Num(1)
    );
    assert_eq!(
        terms[0].get("sealed").unwrap(),
        &xks::store::json::Value::Bool(true)
    );

    // A uniform query on the same index keeps the merge path and the
    // text output says why.
    let out = xks()
        .args(["explain", "w1 w2", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("strategy full-merge"), "{text}");
    assert!(text.contains("note: full k-way merge"), "{text}");
}

#[test]
fn sharded_index_stats_json_schema() {
    let dir = std::env::temp_dir().join("xks-cli-test-sharded-stats");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("corpus.xml");
    std::fs::write(&xml, "<r><a><t>alpha beta</t></a><b><t>gamma</t></b></r>").unwrap();
    let manifest = dir.join("corpus.xksm");
    let out = xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&manifest)
        .args(["--shards", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = xks()
        .args(["index-stats"])
        .arg(&manifest)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).expect("one JSON document");
    // Schema of docs/API.md §index-stats.
    assert!(matches!(
        value.get("sharded").unwrap(),
        xks::store::json::Value::Bool(true)
    ));
    assert_eq!(value.get("shard_count").unwrap().as_u64(), Some(2));
    assert_eq!(value.get("checksums").unwrap().as_str(), Some("ok"));
    let totals = value.get("totals").unwrap();
    assert!(totals.get("elements").unwrap().as_u64().unwrap() > 0);
    assert!(totals.get("file_len").unwrap().as_u64().unwrap() > 0);
    let shards = value.get("shards").unwrap().as_arr().unwrap();
    assert_eq!(shards.len(), 2);
    for shard in shards {
        assert!(shard.get("file").unwrap().as_str().is_some());
        assert!(shard.get("first_doc").unwrap().as_u64().is_some());
        assert!(shard.get("docs").unwrap().as_u64().is_some());
        assert!(shard.get("elements").unwrap().as_u64().is_some());
        assert!(shard.get("keywords").unwrap().as_u64().is_some());
    }

    // The monolithic schema keeps its flat shape, now tagged.
    let mono = dir.join("corpus.xks");
    assert!(xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&mono)
        .output()
        .unwrap()
        .status
        .success());
    let out = xks()
        .args(["index-stats"])
        .arg(&mono)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert!(matches!(
        value.get("sharded").unwrap(),
        xks::store::json::Value::Bool(false)
    ));
    assert!(value.get("elements").unwrap().as_u64().is_some());
}

#[test]
fn search_trace_reports_stage_spans_on_both_backends() {
    let dir = std::env::temp_dir().join("xks-cli-test-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = sample_file();
    let index = dir.join("team.xks");
    assert!(xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&index)
        .output()
        .unwrap()
        .status
        .success());

    // Text mode (memory backend): per-stage breakdown on stderr,
    // fragment output untouched on stdout.
    let out = xks()
        .args(["search"])
        .arg(&xml)
        .args(["grizzlies position", "--trace"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for stage in ["parse", "resolve", "merge_anchor", "construct", "rank"] {
        assert!(stderr.contains(stage), "missing {stage} in:\n{stderr}");
    }

    // JSON mode (disk backend): the response gains a trace block with
    // ordered spans; omitting --trace omits the block.
    let out = xks()
        .args(["search", "--index"])
        .arg(&index)
        .args(["grizzlies position", "--trace", "--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let result = &value.get("results").unwrap().as_arr().unwrap()[0];
    let trace = result.get("trace").unwrap();
    assert_eq!(trace.get("dropped").unwrap().as_u64(), Some(0));
    let spans = trace.get("spans").unwrap().as_arr().unwrap();
    let stages: Vec<&str> = spans
        .iter()
        .map(|s| s.get("stage").unwrap().as_str().unwrap())
        .collect();
    for stage in ["parse", "postings_decode", "resolve", "rank"] {
        assert!(stages.contains(&stage), "missing {stage} in {stages:?}");
    }
    for span in spans {
        assert!(span.get("start_ns").unwrap().as_u64().is_some());
        assert!(span.get("dur_ns").unwrap().as_u64().is_some());
    }

    let out = xks()
        .args(["search", "--index"])
        .arg(&index)
        .args(["grizzlies position", "--format", "json"])
        .output()
        .unwrap();
    let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert!(
        value.get("results").unwrap().as_arr().unwrap()[0]
            .get("trace")
            .is_none(),
        "untraced responses must not carry a trace block"
    );

    // --trace-out writes a Chrome-trace-event document.
    let trace_path = dir.join("trace.json");
    let out = xks()
        .args(["search", "--index"])
        .arg(&index)
        .args(["grizzlies position", "--trace-out"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome = std::fs::read_to_string(&trace_path).unwrap();
    let chrome = xks::store::json::parse(chrome.trim()).expect("valid Chrome trace JSON");
    let events = chrome.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
    assert_eq!(
        chrome
            .get("otherData")
            .unwrap()
            .get("query")
            .unwrap()
            .as_str(),
        Some("grizzlies position")
    );
}

#[test]
fn stats_index_dumps_registry_snapshot() {
    let dir = std::env::temp_dir().join("xks-cli-test-stats-index");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("corpus.xml");
    std::fs::write(
        &xml,
        "<dblp>\
         <article><title>xml keyword search</title><author>liu</author></article>\
         <article><title>skyline query</title><author>chen</author></article>\
         <article><title>keyword search relational</title><author>liu</author></article>\
         <article><title>spatial index</title><author>kim</author></article>\
         </dblp>",
    )
    .unwrap();
    let manifest = dir.join("corpus.xksm");
    assert!(xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&manifest)
        .args(["--shards", "2"])
        .output()
        .unwrap()
        .status
        .success());
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "keyword search\nliu\nspatial index\n").unwrap();

    let out = xks()
        .args(["stats", "--index"])
        .arg(&manifest)
        .args(["--queries"])
        .arg(&queries)
        .args(["--threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(value.get("schema").unwrap().as_str(), Some("xks-obs/1"));

    // One snapshot unifies every subsystem: buffer pool, postings LRU,
    // element cache, per-shard counters, executor draws, lock health.
    let counters = value.get("counters").unwrap();
    for name in [
        "index.shard.0.pool.cache_hits",
        "index.shard.0.postings_cache.misses",
        "index.shard.1.element_cache.hits",
        "index.shard.1.element_cache.evictions",
        "index.shard.0.element_probes",
        "executor.batches",
        "executor.requests",
        "search.queries",
        "lock.poison_recovered",
    ] {
        assert!(counters.get(name).unwrap().as_u64().is_some(), "{name}");
    }
    assert_eq!(counters.get("search.queries").unwrap().as_u64(), Some(3));
    assert_eq!(
        counters.get("lock.poison_recovered").unwrap().as_u64(),
        Some(0),
        "healthy process exports an explicit zero"
    );
    assert_eq!(
        value
            .get("gauges")
            .unwrap()
            .get("index.shard_count")
            .unwrap()
            .as_u64(),
        Some(2)
    );

    // The latency histograms carry coherent percentiles.
    let lat = value
        .get("histograms")
        .unwrap()
        .get("search.total_ns")
        .unwrap();
    assert_eq!(lat.get("count").unwrap().as_u64(), Some(3));
    let p50 = lat.get("p50").unwrap().as_u64().unwrap();
    let p99 = lat.get("p99").unwrap().as_u64().unwrap();
    let max = lat.get("max").unwrap().as_u64().unwrap();
    assert!(
        p50 > 0 && p50 <= p99 && p99 <= max,
        "p50 {p50} p99 {p99} max {max}"
    );
    assert!(!lat.get("buckets").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn index_stats_json_carries_metrics_section() {
    let dir = std::env::temp_dir().join("xks-cli-test-index-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("corpus.xml");
    std::fs::write(&xml, "<r><a><t>alpha beta</t></a><b><t>gamma</t></b></r>").unwrap();
    let mono = dir.join("corpus.xks");
    assert!(xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&mono)
        .output()
        .unwrap()
        .status
        .success());
    let out = xks()
        .args(["index-stats"])
        .arg(&mono)
        .args(["--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let metrics = value.get("metrics").unwrap();
    for name in [
        "pool.pages_read",
        "postings_cache.hits",
        "element_cache.misses",
        "element_cache.evictions",
        "element_probes",
    ] {
        assert!(
            metrics
                .get("counters")
                .unwrap()
                .get(name)
                .unwrap()
                .as_u64()
                .is_some(),
            "{name}"
        );
    }
    assert!(metrics
        .get("gauges")
        .unwrap()
        .get("pool.capacity_pages")
        .unwrap()
        .as_u64()
        .is_some());
}

#[test]
fn mutable_corpus_lifecycle_through_the_cli() {
    // insert (creates the directory) → search --corpus → delete →
    // compact → verify → stats --corpus: the full durable lifecycle of
    // docs/DURABILITY.md driven exactly as a user would drive it, with
    // a process boundary (and therefore a crash recovery) between
    // every step.
    let dir = std::env::temp_dir().join("xks-cli-test-mutable");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus");
    let doc_a = dir.join("a.xml");
    let doc_b = dir.join("b.xml");
    std::fs::write(&doc_a, "<paper><title>xml keyword search</title></paper>").unwrap();
    std::fs::write(&doc_b, "<paper><title>skyline keyword</title></paper>").unwrap();

    for (doc, ordinal) in [(&doc_a, "0"), (&doc_b, "1")] {
        let out = xks()
            .args(["insert", "--corpus"])
            .arg(&corpus)
            .arg(doc)
            .args(["--root", "pubs"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Progress goes to stderr, like build-index.
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("inserted document {ordinal}")),
            "{stderr}"
        );
    }

    let hits = |query: &str| {
        let out = xks()
            .args(["search", "--corpus"])
            .arg(&corpus)
            .args([query, "--format", "json"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
        value.get("results").unwrap().as_arr().unwrap()[0]
            .get("hits")
            .unwrap()
            .as_arr()
            .unwrap()
            .len()
    };
    assert_eq!(hits("keyword"), 2);

    let out = xks()
        .args(["delete", "--corpus"])
        .arg(&corpus)
        .args(["--doc", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(hits("keyword"), 1, "tombstone filters the delta");
    assert_eq!(hits("skyline"), 0);

    let out = xks()
        .args(["compact", "--corpus"])
        .arg(&corpus)
        .args(["--shards", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("generation 1"), "{stderr}");
    assert_eq!(hits("keyword"), 1, "the seal preserves query results");

    // The sealed base passes streaming verification…
    let out = xks()
        .args(["verify", "--index"])
        .arg(corpus.join("corpus.xksm"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok"));

    // …and stats --corpus recovers, runs, and exports the durability
    // counters alongside the corpus gauges.
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "keyword\n").unwrap();
    let out = xks()
        .args(["stats", "--corpus"])
        .arg(&corpus)
        .args(["--queries"])
        .arg(&queries)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let value = xks::store::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let counters = value.get("counters").unwrap();
    for name in [
        "wal.appends",
        "wal.fsyncs",
        "recovery.records_replayed",
        "recovery.tail_truncated",
        "compaction.runs",
    ] {
        assert!(counters.get(name).unwrap().as_u64().is_some(), "{name}");
    }
    let gauges = value.get("gauges").unwrap();
    // Doc 1 was tombstoned *and* was the highest ordinal when the seal
    // ran, so no trace of it survives compaction — its ordinal is
    // legitimately reissuable and the high-water mark sits at 1.
    assert_eq!(gauges.get("corpus.next_ordinal").unwrap().as_u64(), Some(1));
    assert_eq!(gauges.get("corpus.delta_docs").unwrap().as_u64(), Some(0));
}

#[test]
fn verify_detects_corruption_and_exits_nonzero() {
    let dir = std::env::temp_dir().join("xks-cli-test-verify");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("corpus.xml");
    std::fs::write(&xml, "<r><a><t>alpha beta</t></a><b><t>gamma</t></b></r>").unwrap();
    let index = dir.join("corpus.xks");
    assert!(xks()
        .args(["build-index"])
        .arg(&xml)
        .arg(&index)
        .output()
        .unwrap()
        .status
        .success());
    assert!(xks()
        .args(["verify", "--index"])
        .arg(&index)
        .output()
        .unwrap()
        .status
        .success());

    // Flip one byte at the start of the first data section (the first
    // page boundary past the header — byte 0 of the labels section;
    // mid-file offsets can land in page-alignment slack no checksum
    // covers). The streaming CRC check must fail and the exit code
    // must say so.
    let mut bytes = std::fs::read(&index).unwrap();
    bytes[4096] ^= 0x40;
    let broken = dir.join("broken.xks");
    std::fs::write(&broken, &bytes).unwrap();
    let out = xks()
        .args(["verify", "--index"])
        .arg(&broken)
        .output()
        .unwrap();
    assert!(!out.status.success(), "corruption must exit non-zero");
    assert!(!out.stderr.is_empty(), "a diagnostic must name the failure");
}

#[test]
fn build_index_shards_one_still_writes_a_manifest() {
    // --shards follows the flag, not an arithmetic accident: even a
    // computed shard count of 1 (or 0) must produce the manifest
    // format, not silently fall back to a monolithic .xks at the
    // .xksm path.
    let dir = std::env::temp_dir().join("xks-cli-test-shards-one");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("corpus.xml");
    std::fs::write(&xml, "<r><a><t>alpha</t></a><b><t>beta</t></b></r>").unwrap();
    for shards in ["1", "0"] {
        let manifest = dir.join(format!("one-{shards}.xksm"));
        let out = xks()
            .args(["build-index"])
            .arg(&xml)
            .arg(&manifest)
            .args(["--shards", shards])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let magic = &std::fs::read(&manifest).unwrap()[..4];
        assert_eq!(magic, b"XKSM", "--shards {shards} wrote {magic:?}");
        let out = xks().args(["index-stats"]).arg(&manifest).output().unwrap();
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("shards         : 1"));
    }
}

#[test]
fn search_timeout_ms_zero_is_a_typed_timeout() {
    // A zero budget deterministically expires before the first
    // pipeline stage: the CLI must report the typed deadline error
    // (stage and elapsed time), not a generic failure or a hang.
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["grizzlies", "--timeout-ms", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "expired deadline fails the command");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
    assert!(stderr.contains("resolve stage"), "{stderr}");

    // A generous budget changes nothing about the results.
    let out = xks()
        .args(["search"])
        .arg(sample_file())
        .args(["grizzlies", "--timeout-ms", "60000", "--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"results\""));
}

#[test]
fn serve_e2e_requests_then_sigint_drains_and_exits_zero() {
    use std::io::BufRead as _;

    let mut child = xks()
        .args(["serve"])
        .arg(sample_file())
        .args(["--port", "0", "--workers", "2", "--drain-ms", "5000"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");

    // The startup line is the documented parseable surface: port 0
    // resolves to the real bound address here.
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines.next().expect("startup line").unwrap();
    let addr: std::net::SocketAddr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line {first:?}"))
        .parse()
        .expect("startup line carries a socket address");

    let health = xks::serve::client::request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    let search =
        xks::serve::client::request(addr, "POST", "/search", b"{\"query\":\"grizzlies\"}").unwrap();
    assert_eq!(search.status, 200);
    assert!(search.text().contains("\"hits\""), "{}", search.text());
    let stats = xks::serve::client::request(addr, "GET", "/stats", b"").unwrap();
    assert_eq!(stats.status, 200);
    assert!(
        stats.text().contains("\"http.requests\""),
        "{}",
        stats.text()
    );

    // SIGINT must drain gracefully: exit code 0 and the final stats
    // line on stderr.
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let out = child.wait_with_output().expect("server exits");
    assert!(
        out.status.success(),
        "SIGINT exit must be 0, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("server drained:"), "{stderr}");
    assert!(stderr.contains("response(s) served"), "{stderr}");
}

#[test]
fn serve_response_is_byte_identical_to_cli_search_json() {
    use std::io::BufRead as _;

    // True end-to-end differential through the *binary* on both sides:
    // `xks search --index --format json` and `xks serve --index` must
    // produce byte-identical result objects (modulo wall-clock
    // timings) on both the monolithic and sharded backends.
    let dir = std::env::temp_dir().join("xks-cli-serve-diff");
    std::fs::create_dir_all(&dir).unwrap();
    let xml = sample_file();
    let query = "grizzlies position";

    for (name, shard_args) in [
        ("mono.xks", None),
        ("sharded.xksm", Some(["--shards", "2"])),
    ] {
        let index = dir.join(name);
        let mut build = xks();
        build.args(["build-index"]).arg(&xml).arg(&index);
        if let Some(args) = shard_args {
            build.args(args);
        }
        assert!(build.output().unwrap().status.success());

        let out = xks()
            .args(["search", "--index"])
            .arg(&index)
            .args([query, "--format", "json"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let cli_doc = xks::store::json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
        let xks::store::json::Value::Obj(mut cli_doc) = cli_doc else {
            panic!("results wrapper object")
        };
        let Some(xks::store::json::Value::Arr(mut results)) = cli_doc.remove("results") else {
            panic!("results array")
        };
        let mut cli_result = results.remove(0);

        let mut child = xks()
            .args(["serve", "--index"])
            .arg(&index)
            .args(["--port", "0"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let first = std::io::BufReader::new(stdout)
            .lines()
            .next()
            .unwrap()
            .unwrap();
        let addr: std::net::SocketAddr = first
            .strip_prefix("listening on ")
            .unwrap()
            .parse()
            .unwrap();
        let body = format!("{{\"query\":{:?}}}", query);
        let served = xks::serve::client::request(addr, "POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(served.status, 200);
        let mut served_result = xks::store::json::parse(served.text()).unwrap();

        for value in [&mut cli_result, &mut served_result] {
            if let xks::store::json::Value::Obj(fields) = value {
                fields.remove("timings_us");
            }
        }
        assert_eq!(
            xks::store::json::to_string(&served_result),
            xks::store::json::to_string(&cli_result),
            "{name}: served bytes diverged from the CLI render"
        );

        assert!(Command::new("kill")
            .args(["-INT", &child.id().to_string()])
            .status()
            .unwrap()
            .success());
        assert!(child.wait().unwrap().success(), "{name}: SIGINT exit 0");
    }
}

// -- workload matrix ----------------------------------------------------

/// The committed grammar-mix fixture must flow through `xks bench
/// --queries` end to end: every operator class (plain, phrase,
/// exclusion, label filter, adversarial) parses and executes, closing
/// the PR 10 grammar/bench gap.
#[test]
fn bench_accepts_full_grammar_query_file() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = xks()
        .args(["bench"])
        .arg(fixtures.join("grammar_corpus.xml"))
        .args(["--queries"])
        .arg(fixtures.join("grammar_mix.txt"))
        .args(["--sweeps", "1", "--format", "json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    assert_eq!(value.get("queries").unwrap().as_u64(), Some(10));
    assert!(value.get("fragments").unwrap().as_u64().unwrap() > 0);
}

#[test]
fn workload_list_names_every_matrix_cell() {
    let out = xks()
        .args(["workload", "list", "--format", "json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    let cells = value.get("cells").unwrap().as_arr().unwrap();
    assert_eq!(cells.len(), 12);
    let names: Vec<&str> = cells
        .iter()
        .map(|c| c.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(names.contains(&"s1-flat-zipf-single"), "{names:?}");
    assert!(names.contains(&"s100-wide-zipf-multi8"), "{names:?}");
}

#[test]
fn workload_show_reports_every_query_class() {
    let out = xks()
        .args([
            "workload",
            "show",
            "s1-deep-uniform-single",
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    assert!(value.get("max_depth").unwrap().as_u64().unwrap() >= 5);
    let classes = value.get("classes").unwrap().as_arr().unwrap();
    assert_eq!(classes.len(), 5);
    for class in classes {
        assert!(
            !class.get("queries").unwrap().as_arr().unwrap().is_empty(),
            "class {:?} has no queries",
            class.get("class")
        );
    }
}

#[test]
fn workload_show_rejects_unknown_cell() {
    let out = xks()
        .args(["workload", "show", "s1-spherical-zipf-single"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload cell"), "{stderr}");
}

/// `workload generate` output must round-trip: the emitted XML parses
/// and the emitted query file (full grammar, class comments) drives
/// `xks bench` on that very corpus with nonzero hits.
#[test]
fn workload_generate_feeds_bench_end_to_end() {
    let dir = std::env::temp_dir().join("xks-cli-workload");
    let _ = std::fs::remove_dir_all(&dir);
    let out = xks()
        .args(["workload", "generate", "s1-flat-zipf-single", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bench = xks()
        .args(["bench"])
        .arg(dir.join("s1-flat-zipf-single.xml"))
        .args(["--queries"])
        .arg(dir.join("s1-flat-zipf-single.queries.txt"))
        .args(["--sweeps", "1", "--format", "json"])
        .output()
        .expect("binary runs");
    assert!(
        bench.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&bench.stderr)
    );
    let stdout = String::from_utf8_lossy(&bench.stdout);
    let value = xks::store::json::parse(stdout.trim()).unwrap();
    assert_eq!(value.get("queries").unwrap().as_u64(), Some(22));
    assert!(value.get("fragments").unwrap().as_u64().unwrap() > 0);
}

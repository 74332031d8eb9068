//! `xks` — command-line XML keyword search. `xks help [<command>]` is
//! the reference, generated from the table in `cli/mod.rs` that the
//! parser enforces; `docs/{API,OBSERVABILITY,DURABILITY,SERVER}.md`
//! document the grammar and JSON schemas, tracing and the metrics
//! snapshot, the mutable corpus directories, and the HTTP server.
//!
//! What the code does not show: `--index` tells a monolithic `.xks` from
//! a shard manifest by the file's magic, never its extension, because
//! `build-index` writes whichever format `--shards` asks for under any
//! name it is given — and that is what lets every `--index` command run
//! unchanged, with byte-identical results, on a sharded corpus.

mod cli;

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli::dispatch(&argv)
}

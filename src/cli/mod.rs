//! The `xks` command line, stated once: the parser ([`Args`]) enforces
//! [`COMMANDS`], `xks help` prints it, and a usage error quotes the
//! offending command's row.

mod args;
mod backend;
mod bench;
mod corpus;
mod explain;
mod index;
mod search;
mod serve;
mod stats;
mod workload;

use std::process::ExitCode;

use xks::store::json::{self, Value};

pub use args::{Args, Format};

/// `(name, metavariable)`; no metavariable marks a boolean switch.
pub type Flag = (&'static str, Option<&'static str>);

pub struct Command {
    pub name: &'static str,
    /// Positional synopsis, one per accepted shape; a form spells a
    /// flag only when that shape cannot do without it.
    pub forms: &'static [&'static str],
    /// Shared groups plus the command's own.
    pub flags: &'static [&'static [Flag]],
    /// The positional count, where one number covers every form.
    pub arity: Option<usize>,
    pub run: fn(&Args) -> Result<(), String>,
}

const N: Option<&str> = Some("N");

const BACKEND: &[Flag] = &[
    ("index", Some("<file.xks|file.xksm>")),
    ("corpus", Some("<dir>")),
    ("shard-threads", N),
];
const ALGO: &[Flag] = &[("algo", Some("valid|maxmatch|slca"))];
const FORMAT: &[Flag] = &[("format", Some("json|text"))];
const BATCH: &[Flag] = &[("top-k", N), ("threads", N)];

#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    Command { name: "search", forms: &["[<file.xml>] \"<query>\" [\"<query>\" ...]"], arity: None, run: search::run,
        flags: &[BACKEND, ALGO, FORMAT, BATCH, &[("limit", N), ("xml", None), ("rank", None), ("trace", None),
            ("trace-out", Some("<trace.json>")), ("timeout-ms", N)]] },
    Command { name: "serve", forms: &["[<file.xml>]"], arity: None, run: serve::run,
        flags: &[BACKEND, &[("addr", Some("HOST:PORT")), ("port", N), ("workers", N), ("queue-depth", N),
            ("timeout-ms", N), ("drain-ms", N), ("idle-ms", N), ("max-body-bytes", N)]] },
    Command { name: "explain", forms: &["[<file.xml>] \"<query>\""], arity: None, run: explain::run,
        flags: &[BACKEND, ALGO, FORMAT] },
    Command { name: "bench", forms: &["[<file.xml>] --queries <queries.txt>"], arity: None, run: bench::run,
        flags: &[BACKEND, ALGO, FORMAT, BATCH, &[("queries", Some("<queries.txt>")), ("sweeps", N)]] },
    Command { name: "compare", forms: &["<file.xml> \"<query>\""], arity: Some(2), run: bench::compare,
        flags: &[FORMAT] },
    Command { name: "stats", forms: &["[<file.xml>]"], arity: None, run: stats::run,
        flags: &[BACKEND, ALGO, BATCH, &[("top", N), ("queries", Some("<queries.txt>"))]] },
    Command { name: "build-index", forms: &["<file.xml> <out.xks|out.xksm>"], arity: Some(2), run: index::build,
        flags: &[&[("page-size", N), ("shards", N)]] },
    Command { name: "index-stats", forms: &["<file.xks|file.xksm>"], arity: Some(1), run: index::stats,
        flags: &[FORMAT] },
    Command { name: "verify", forms: &["--index <file.xks|file.xksm>", "<file.xks|file.xksm>"], arity: None, run: index::verify,
        flags: &[&[("index", Some("<file.xks|file.xksm>"))]] },
    Command { name: "insert", forms: &["--corpus <dir> <file.xml>"], arity: Some(1), run: corpus::insert,
        flags: &[&[("corpus", Some("<dir>")), ("root", Some("<label>"))]] },
    Command { name: "delete", forms: &["--corpus <dir> --doc <ordinal>"], arity: Some(0), run: corpus::delete,
        flags: &[&[("corpus", Some("<dir>")), ("doc", Some("<ordinal>"))]] },
    Command { name: "compact", forms: &["--corpus <dir>"], arity: Some(0), run: corpus::compact,
        flags: &[&[("corpus", Some("<dir>")), ("shards", N)]] },
    Command { name: "workload", forms: &["list", "show <cell>", "generate <cell>|all"], arity: None, run: workload::run,
        flags: &[FORMAT, &[("out", Some("<dir>"))]] },
    Command { name: "help", forms: &["[<command>]"], arity: None, run: help, flags: &[] },
];

/// What the table cannot say.
const POINTERS: &str = "\
A query command reads [<file.xml>], or the stored backend that --index or
--corpus names; --index sniffs the file magic, so a shard manifest from
build-index --shards works everywhere a .xks does.
query grammar: plain keywords, \"quoted phrases\", -excluded, label:word
docs/API.md: the grammar, the JSON output schemas, sharded indexes
docs/WORKLOADS.md: the s<scale>-<shape>-<skew>-<tenancy> cells of xks workload
docs/OBSERVABILITY.md: --trace and the stats --index snapshot
docs/DURABILITY.md: insert/delete/compact corpus directories, crash recovery
docs/SERVER.md: xks serve endpoints, admission control, deadlines, shutdown";

fn show(&(name, metavar): &Flag) -> String {
    metavar.map_or_else(|| format!("--{name}"), |m| format!("--{name} {m}"))
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().copied().flatten()
    }

    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|flag| flag.0 == name)
    }

    /// Every form, then the flags no form already names.
    pub fn usage(&self) -> String {
        let forms = self.forms.iter();
        let mut lines: Vec<String> = forms.map(|f| format!("  xks {} {f}", self.name)).collect();
        let named = lines.join(" ");
        let rest: Vec<String> = self
            .flags()
            .filter(|(name, _)| !named.split(' ').any(|w| w.strip_prefix("--") == Some(name)))
            .map(|flag| format!("[{}]", show(flag)))
            .collect();
        if !rest.is_empty() {
            lines.push(format!("      {}", rest.join(" ")));
        }
        lines.join("\n")
    }
}

fn find(name: &str) -> Result<&'static Command, String> {
    COMMANDS.iter().find(|c| c.name == name).ok_or_else(|| {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        format!("unknown command {name:?} (commands: {})", names.join(", "))
    })
}

fn help_all() -> String {
    let blocks: Vec<String> = COMMANDS.iter().map(Command::usage).collect();
    format!("usage:\n{}\n\n{POINTERS}", blocks.join("\n"))
}

fn help(args: &Args) -> Result<(), String> {
    match args.positionals.as_slice() {
        [] => println!("{}", help_all()),
        [name] => println!("usage:\n{}", find(name)?.usage()),
        _ => return Err(args.usage_error("takes at most one command name")),
    }
    Ok(())
}

/// Exit codes: 0 success, 1 any failure, 2 no command at all.
pub fn dispatch(argv: &[String]) -> ExitCode {
    let Some((name, rest)) = argv.split_first() else {
        eprintln!("{}", help_all());
        return ExitCode::from(2);
    };
    let name = if matches!(name.as_str(), "--help" | "-h") {
        "help"
    } else {
        name
    };
    let result = find(name).and_then(|command| {
        if rest.iter().any(|arg| arg == "--help") {
            println!("usage:\n{}", command.usage());
            return Ok(());
        }
        (command.run)(&Args::parse(command, rest)?)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xks: {msg}");
            ExitCode::from(1)
        }
    }
}

fn print_json(value: &Value) {
    println!("{}", json::to_string(value));
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;

    /// The table's own consistency: a form may spell only flags its row
    /// declares, and no row declares a flag or a command name twice.
    #[test]
    fn table_rows_are_consistent() {
        for (i, command) in COMMANDS.iter().enumerate() {
            let name = command.name;
            assert!(COMMANDS[..i].iter().all(|c| c.name != name), "{name} twice");
            let flags: Vec<&str> = command.flags().map(|flag| flag.0).collect();
            for (j, flag) in flags.iter().enumerate() {
                assert!(!flags[..j].contains(flag), "{name} declares --{flag} twice");
            }
            let spelled = command.forms.iter().flat_map(|form| form.split(' '));
            for flag in spelled.filter_map(|word| word.strip_prefix("--")) {
                assert!(
                    flags.contains(&flag),
                    "{name}: a form spells undeclared --{flag}"
                );
            }
        }
    }
}

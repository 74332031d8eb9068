//! A command's arguments, parsed against its table row. The accessors
//! refuse (in debug builds) a flag the row does not declare: a lookup
//! the parser can never have satisfied is a bug, not a silent `None`.

use std::time::Duration;

use xks::core::engine::AlgorithmKind;
use xks::core::wire;

use super::Command;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Json,
}

pub struct Args {
    command: &'static Command,
    pub positionals: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Splits positionals from `--flag [value]` pairs. An undeclared or
    /// repeated flag, a missing value and a positional count other than
    /// the row's arity are usage errors.
    pub fn parse(command: &'static Command, argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            command,
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                args.positionals.push(arg.clone());
                continue;
            };
            let Some(&(name, metavar)) = command.flag(name) else {
                return Err(args.usage_error(&format!("unknown flag --{name}")));
            };
            if args.flags.iter().any(|(given, _)| *given == name) {
                return Err(args.usage_error(&format!("--{name} given more than once")));
            }
            let value = match metavar {
                None => None,
                Some(metavar) => Some(it.next().cloned().ok_or_else(|| {
                    args.usage_error(&format!("--{name} expects a value ({metavar})"))
                })?),
            };
            args.flags.push((name, value));
        }
        match command.arity {
            Some(n) if n != args.positionals.len() => Err(args.arity_error(n)),
            _ => Ok(args),
        }
    }

    /// `<command>: <what>`, followed by the command's generated usage.
    pub fn usage_error(&self, what: &str) -> String {
        let command = self.command;
        format!("{}: {what}\nusage:\n{}", command.name, command.usage())
    }

    fn arity_error(&self, want: usize) -> String {
        self.usage_error(&format!(
            "takes {want} positional argument(s), got {}",
            self.positionals.len()
        ))
    }

    /// `rest` (all positionals, or those a backend left over) as exactly
    /// `N` arguments — `N` is inferred from the caller's pattern — or the
    /// usage error the table's arity raises.
    pub fn expect_positionals<'a, const N: usize>(
        &self,
        rest: &'a [String],
    ) -> Result<&'a [String; N], String> {
        let consumed = self.positionals.len() - rest.len();
        rest.try_into().map_err(|_| self.arity_error(consumed + N))
    }

    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.command.flag(name).is_some(),
            "undeclared flag --{name}"
        );
        let (_, value) = self.flags.iter().find(|(given, _)| *given == name)?;
        Some(value)
    }

    pub fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    pub fn str(&self, name: &str) -> Option<&str> {
        self.lookup(name)?.as_deref()
    }

    pub fn num(&self, name: &str) -> Result<Option<usize>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}"))
        };
        self.str(name).map(parse).transpose()
    }

    pub fn millis(&self, name: &str) -> Result<Option<Duration>, String> {
        Ok(self.num(name)?.map(|ms| Duration::from_millis(ms as u64)))
    }

    /// The value of a flag the command cannot run without.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        let metavar = self.command.flag(name).and_then(|flag| flag.1);
        let missing = || self.usage_error(&format!("needs --{name} {}", metavar.unwrap_or("")));
        self.str(name).ok_or_else(missing)
    }

    // The shared flag groups, each parsed in one place.

    pub fn algo(&self) -> Result<AlgorithmKind, String> {
        let name = self.str("algo").unwrap_or("valid");
        wire::parse_algorithm(name).ok_or_else(|| format!("unknown --algo {name:?}"))
    }

    pub fn format(&self) -> Result<Format, String> {
        match self.str("format") {
            None | Some("text") => Ok(Format::Text),
            Some("json") => Ok(Format::Json),
            Some(other) => Err(format!("unknown --format {other:?} (json|text)")),
        }
    }

    /// `(--top-k, --threads)`.
    pub fn batch(&self) -> Result<(Option<usize>, usize), String> {
        Ok((self.num("top-k")?, self.num("threads")?.unwrap_or(1)))
    }
}

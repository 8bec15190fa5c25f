//! Minimal flag parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs; bare flags get an empty value. Every
    /// key is kept: [`Self::accepting`] rejects those a command does not
    /// take.
    ///
    /// # Errors
    ///
    /// Returns an error for non-flag positional arguments.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = (*v).clone();
                    it.next();
                    v
                }
                _ => String::new(),
            };
            values.insert(key.to_string(), value);
        }
        Ok(Self { values })
    }

    /// Keeps the flags if every key belongs to one of `accepted`'s
    /// groups; otherwise fails naming each unknown flag, so a typo such
    /// as `--iter` is reported instead of silently ignored.
    ///
    /// # Errors
    ///
    /// Returns an error naming the unknown flags (sorted) and `command`.
    pub fn accepting(self, command: &str, accepted: &[&[&str]]) -> Result<Self, String> {
        let mut unknown: Vec<String> = self
            .values
            .keys()
            .filter(|k| !accepted.iter().any(|group| group.contains(&k.as_str())))
            .map(|k| format!("--{k}"))
            .collect();
        if unknown.is_empty() {
            return Ok(self);
        }
        unknown.sort();
        let noun = if unknown.len() == 1 { "flag" } else { "flags" };
        Err(format!(
            "unknown {noun} {} for `lsopc {command}` (try `lsopc help`)",
            unknown.join(", ")
        ))
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None | Some("") => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// Comma-separated 1-based index list (e.g. `--cases 1,3`).
    ///
    /// # Errors
    ///
    /// Returns an error when an entry does not parse.
    pub fn index_list(&self, key: &str) -> Result<Vec<usize>, String> {
        match self.get(key) {
            None | Some("") => Ok(Vec::new()),
            Some(list) => list
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<usize>()
                        .map(|i| i.saturating_sub(1))
                        .map_err(|_| format!("invalid index `{t}` in --{key}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let flags = Flags::parse(&argv(&["--glp", "a.glp", "--grid", "256"])).expect("parses");
        assert_eq!(flags.get("glp"), Some("a.glp"));
        assert_eq!(flags.num("grid", 512usize).expect("num"), 256);
        assert_eq!(flags.num("iters", 30usize).expect("default"), 30);
    }

    #[test]
    fn rejects_positional() {
        assert!(Flags::parse(&argv(&["oops"])).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let flags = Flags::parse(&argv(&[])).expect("parses");
        assert!(flags.require("glp").expect_err("missing").contains("--glp"));
    }

    #[test]
    fn index_list_is_one_based() {
        let flags = Flags::parse(&argv(&["--cases", "1,4,10"])).expect("parses");
        assert_eq!(flags.index_list("cases").expect("list"), vec![0, 3, 9]);
    }

    #[test]
    fn accepting_names_every_unknown_flag() {
        let flags = Flags::parse(&argv(&["--iter", "3", "--grid", "128", "--rfft"]))
            .expect("parses")
            .accepting("optimize", &[&["grid"], &["iters"]]);
        let err = flags.expect_err("unknown flags");
        assert!(err.contains("--iter, --rfft"), "{err}");
        assert!(err.contains("lsopc optimize"), "{err}");
        let ok = Flags::parse(&argv(&["--grid", "128", "--iters", "3"]))
            .expect("parses")
            .accepting("optimize", &[&["grid"], &["iters"]])
            .expect("known flags pass");
        assert_eq!(ok.get("iters"), Some("3"));
    }

    #[test]
    fn bare_flag_has_empty_value() {
        let flags = Flags::parse(&argv(&["--verbose", "--grid", "128"])).expect("parses");
        assert_eq!(flags.get("verbose"), Some(""));
        assert_eq!(flags.num("grid", 0usize).expect("num"), 128);
    }
}

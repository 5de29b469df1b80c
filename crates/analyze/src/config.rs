//! Analyzer configuration: built-in invariant scopes plus the checked-in
//! `analyze.toml` allowlist.
//!
//! The build environment cannot fetch a TOML crate, so a small parser for
//! the subset the config uses lives here: `[section]` tables,
//! `[[allow]]` array-of-tables, string / integer values, and string
//! arrays (single-line or multi-line). Unknown keys are rejected so typos
//! in the allowlist fail loudly instead of silently allowing nothing.

use std::fmt;
use std::path::Path;

/// One allowlist entry: suppresses diagnostics of `lint` in `path`
/// (optionally at one `line`) with a mandatory human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint name, e.g. `hot-path-panic`.
    pub lint: String,
    /// Workspace-relative file path the suppression applies to.
    pub path: String,
    /// Optional 1-based line restriction.
    pub line: Option<u32>,
    /// Why the violation is acceptable; required, shown in reports.
    pub reason: String,
}

/// Full analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files whose replacement/decision code must be panic-free
    /// (workspace-relative; `*` matches within one path segment).
    pub hot_paths: Vec<String>,
    /// Files whose emission order reaches golden traces or result files.
    pub ordered_output: Vec<String>,
    /// Directories in which `as`-narrowing of integer quantities is
    /// forbidden outside the checked-cast helper.
    pub cast_scope: Vec<String>,
    /// Files allowed to use seeded-randomness constructors freely.
    pub rng_exempt: Vec<String>,
    /// Directory of replacement-policy modules.
    pub policies_dir: String,
    /// Test files that must drive the full `PolicyKind::ALL` matrix.
    pub matrix_tests: Vec<String>,
    /// Checked-in suppressions.
    pub allow: Vec<AllowEntry>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hot_paths: [
                "crates/sim/src/cache.rs",
                "crates/sim/src/hierarchy.rs",
                "crates/sim/src/replace.rs",
                "crates/sim/src/nuca.rs",
                "crates/sim/src/policies/*.rs",
                "crates/core/src/engine.rs",
                "crates/core/src/policy.rs",
                "crates/core/src/topt.rs",
                "crates/core/src/reref.rs",
                // Loader/serializer paths: failures must surface as the
                // crate error types, never as panics.
                "crates/graph/src/io.rs",
                "crates/graph/src/csr.rs",
                "crates/trace/src/file.rs",
            ]
            .map(String::from)
            .to_vec(),
            ordered_output: [
                "crates/trace/src/*.rs",
                "crates/sim/src/stats.rs",
                "crates/cli/src/table.rs",
                "crates/cli/src/runner.rs",
                "crates/cli/src/experiments/*.rs",
            ]
            .map(String::from)
            .to_vec(),
            cast_scope: ["crates/core/src", "crates/sim/src"]
                .map(String::from)
                .to_vec(),
            rng_exempt: ["crates/graph/src/generators.rs"]
                .map(String::from)
                .to_vec(),
            policies_dir: "crates/sim/src/policies".into(),
            matrix_tests: ["crates/sim/tests/policy_fuzz.rs"]
                .map(String::from)
                .to_vec(),
            allow: Vec::new(),
        }
    }
}

/// A config-file syntax or schema error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in `analyze.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyze.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Loads configuration from `analyze.toml` under `root`, or the
    /// defaults if the file does not exist.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        let path = root.join("analyze.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => Config::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(ConfigError {
                line: 0,
                message: format!("cannot read {}: {e}", path.display()),
            }),
        }
    }

    /// Parses the `analyze.toml` subset. Sections other than `[paths]`,
    /// `[registry]`, and `[[allow]]` are rejected.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section = Section::Top;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                config.allow.push(AllowEntry {
                    lint: String::new(),
                    path: String::new(),
                    line: None,
                    reason: String::new(),
                });
                section = Section::Allow;
                continue;
            }
            if line == "[paths]" {
                section = Section::Paths;
                continue;
            }
            if line == "[registry]" {
                section = Section::Registry;
                continue;
            }
            if line.starts_with('[') {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown section {line}"),
                });
            }
            let (key, mut value) = split_key_value(&line, lineno)?;
            // A multi-line array keeps consuming lines until the `]`.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont).trim().to_string();
                    value.push(' ');
                    value.push_str(&cont);
                    if cont.ends_with(']') {
                        break;
                    }
                }
            }
            apply_key(&mut config, section, &key, &value, lineno)?;
        }
        for (i, entry) in config.allow.iter().enumerate() {
            if entry.lint.is_empty() || entry.path.is_empty() || entry.reason.is_empty() {
                return Err(ConfigError {
                    line: 0,
                    message: format!("[[allow]] entry #{} must set lint, path, and reason", i + 1),
                });
            }
        }
        Ok(config)
    }

    /// True when `entry` suppresses a diagnostic of `lint` at
    /// `path:line`.
    pub fn is_allowed(&self, lint: &str, path: &str, line: u32) -> bool {
        self.allow
            .iter()
            .any(|a| a.lint == lint && a.path == path && a.line.map(|l| l == line).unwrap_or(true))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Top,
    Paths,
    Registry,
    Allow,
}

fn strip_comment(line: &str) -> &str {
    // Good enough for this config dialect: `#` never appears inside the
    // quoted strings we use (paths, lint names, reasons).
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn split_key_value(line: &str, lineno: usize) -> Result<(String, String), ConfigError> {
    let Some((key, value)) = line.split_once('=') else {
        return Err(ConfigError {
            line: lineno,
            message: format!("expected `key = value`, got {line:?}"),
        });
    };
    Ok((key.trim().to_string(), value.trim().to_string()))
}

fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ConfigError {
            line: lineno,
            message: format!("expected a quoted string, got {v:?}"),
        })
    }
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(ConfigError {
            line: lineno,
            message: format!("expected an array of strings, got {v:?}"),
        });
    }
    v[1..v.len() - 1]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_string(s, lineno))
        .collect()
}

fn apply_key(
    config: &mut Config,
    section: Section,
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<(), ConfigError> {
    match section {
        Section::Top => Err(ConfigError {
            line: lineno,
            message: format!("key {key:?} outside any section"),
        }),
        Section::Paths => {
            let target = match key {
                "hot" => &mut config.hot_paths,
                "ordered_output" => &mut config.ordered_output,
                "cast_scope" => &mut config.cast_scope,
                "rng_exempt" => &mut config.rng_exempt,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown [paths] key {key:?}"),
                    })
                }
            };
            *target = parse_string_array(value, lineno)?;
            Ok(())
        }
        Section::Registry => match key {
            "policies_dir" => {
                config.policies_dir = parse_string(value, lineno)?;
                Ok(())
            }
            "matrix_tests" => {
                config.matrix_tests = parse_string_array(value, lineno)?;
                Ok(())
            }
            _ => Err(ConfigError {
                line: lineno,
                message: format!("unknown [registry] key {key:?}"),
            }),
        },
        Section::Allow => {
            let Some(entry) = config.allow.last_mut() else {
                return Err(ConfigError {
                    line: lineno,
                    message: "key before any [[allow]] header".into(),
                });
            };
            match key {
                "lint" => entry.lint = parse_string(value, lineno)?,
                "path" => entry.path = parse_string(value, lineno)?,
                "reason" => entry.reason = parse_string(value, lineno)?,
                "line" => {
                    entry.line = Some(value.trim().parse().map_err(|_| ConfigError {
                        line: lineno,
                        message: format!("line must be an integer, got {value:?}"),
                    })?)
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown [[allow]] key {key:?}"),
                    })
                }
            }
            Ok(())
        }
    }
}

/// Matches `path` against `pattern`, where a `*` matches any run of
/// characters except `/` (single-segment wildcard).
pub fn glob_matches(pattern: &str, path: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == path,
        Some((prefix, suffix)) => {
            path.len() >= prefix.len() + suffix.len()
                && path.starts_with(prefix)
                && path.ends_with(suffix)
                && !path[prefix.len()..path.len() - suffix.len()].contains('/')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_paper_hot_paths() {
        let c = Config::default();
        assert!(c.hot_paths.iter().any(|p| p.ends_with("cache.rs")));
        assert!(c.cast_scope.contains(&"crates/core/src".to_string()));
        assert!(c.allow.is_empty());
    }

    #[test]
    fn parses_allow_entries_and_sections() {
        let text = r#"
# comment
[paths]
hot = ["a.rs", "b/*.rs"]

[registry]
policies_dir = "x/policies"

[[allow]]
lint = "hot-path-panic"
path = "a.rs"
line = 12
reason = "constructor asserts ways >= 1"

[[allow]]
lint = "lossy-cast"
path = "b/c.rs"
reason = "bounded by quantization"
"#;
        let c = Config::parse(text).expect("parses");
        assert_eq!(c.hot_paths, vec!["a.rs", "b/*.rs"]);
        assert_eq!(c.policies_dir, "x/policies");
        assert_eq!(c.allow.len(), 2);
        assert_eq!(c.allow[0].line, Some(12));
        assert!(c.is_allowed("hot-path-panic", "a.rs", 12));
        assert!(!c.is_allowed("hot-path-panic", "a.rs", 13));
        assert!(c.is_allowed("lossy-cast", "b/c.rs", 999));
        assert!(!c.is_allowed("lossy-cast", "a.rs", 12));
    }

    #[test]
    fn multiline_arrays_parse() {
        let text = "[paths]\nhot = [\n  \"a.rs\",\n  \"b.rs\",\n]\n";
        let c = Config::parse(text).expect("parses");
        assert_eq!(c.hot_paths, vec!["a.rs", "b.rs"]);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(Config::parse("[paths]\nhott = [\"a\"]\n").is_err());
        assert!(Config::parse("[wat]\n").is_err());
        assert!(Config::parse("[[allow]]\nlint = \"x\"\n").is_err());
        assert!(Config::parse("stray = 1\n").is_err());
    }

    #[test]
    fn globs_match_single_segments() {
        assert!(glob_matches(
            "crates/sim/src/policies/*.rs",
            "crates/sim/src/policies/lru.rs"
        ));
        assert!(!glob_matches(
            "crates/sim/src/*.rs",
            "crates/sim/src/policies/lru.rs"
        ));
        assert!(glob_matches("a.rs", "a.rs"));
        assert!(!glob_matches("a.rs", "b.rs"));
    }
}

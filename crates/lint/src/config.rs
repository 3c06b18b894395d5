//! `lint.toml` — path scoping for the rule families.
//!
//! The build environment is offline and the vendor tree holds stubs,
//! so the linter parses the small TOML subset it needs by hand:
//! `[section]` headers and `key = ["a", "b"]` string arrays (single-
//! or multi-line), with `#` comments.
//!
//! ```toml
//! [paths]
//! skip = ["target", "vendor"]
//!
//! [shard]                # P-rules
//! include = ["crates/sim/src"]
//!
//! [numeric]              # N-rules
//! include = ["crates/sim/src", "crates/core/src"]
//! ```

use std::fmt;

/// Parsed scoping configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes (relative to the root) never scanned.
    pub skip: Vec<String>,
    /// Path prefixes the shard-safety rules (P-*) certify.
    pub shard: Vec<String>,
    /// Path prefixes E-001 discovers `impl Protocol` blocks in.
    pub exhaustive: Vec<String>,
    /// Explicit enum → cover-file obligations for E-002.
    pub covers: Vec<CoverSpec>,
    /// Path prefixes the numeric-determinism rules (N-*) apply to.
    pub numeric: Vec<String>,
}

/// One `[exhaustive] covers` triple, written in `lint.toml` as a
/// whitespace-separated string:
/// `"SimEvent crates/sim/src/trace.rs crates/core/src/observe.rs"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverSpec {
    /// The enum whose variants must all be covered.
    pub enum_name: String,
    /// The file defining the enum.
    pub def_file: String,
    /// The file that must hold a pattern for every variant.
    pub cover_file: String,
}

impl Default for Config {
    /// The scoping used when no `lint.toml` is found — mirrors the
    /// committed workspace configuration.
    fn default() -> Config {
        Config {
            skip: vec![
                "target".to_owned(),
                "vendor".to_owned(),
                ".git".to_owned(),
                "crates/lint/tests/fixtures".to_owned(),
                "results".to_owned(),
            ],
            shard: vec![
                "crates/sim/src".to_owned(),
                "crates/algorand/src".to_owned(),
                "crates/aptos/src".to_owned(),
                "crates/avalanche/src".to_owned(),
                "crates/redbelly/src".to_owned(),
                "crates/solana/src".to_owned(),
                "crates/workload/src".to_owned(),
            ],
            exhaustive: vec![
                "crates/sim/src".to_owned(),
                "crates/algorand/src".to_owned(),
                "crates/aptos/src".to_owned(),
                "crates/avalanche/src".to_owned(),
                "crates/redbelly/src".to_owned(),
                "crates/solana/src".to_owned(),
            ],
            covers: vec![
                CoverSpec {
                    enum_name: "SimEvent".to_owned(),
                    def_file: "crates/sim/src/trace.rs".to_owned(),
                    cover_file: "crates/core/src/observe.rs".to_owned(),
                },
                CoverSpec {
                    enum_name: "SimEvent".to_owned(),
                    def_file: "crates/sim/src/trace.rs".to_owned(),
                    cover_file: "crates/core/src/diagnose.rs".to_owned(),
                },
            ],
            numeric: vec![
                "crates/sim/src".to_owned(),
                "crates/algorand/src".to_owned(),
                "crates/aptos/src".to_owned(),
                "crates/avalanche/src".to_owned(),
                "crates/redbelly/src".to_owned(),
                "crates/solana/src".to_owned(),
                "crates/core/src".to_owned(),
                "crates/types/src".to_owned(),
                "crates/stats/src".to_owned(),
                "crates/adversary/src".to_owned(),
                "crates/workload/src".to_owned(),
            ],
        }
    }
}

/// A `lint.toml` the parser could not make sense of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses the TOML subset described in the module docs.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut config = Config {
            skip: Vec::new(),
            shard: Vec::new(),
            exhaustive: Vec::new(),
            covers: Vec::new(),
            numeric: Vec::new(),
        };
        let mut section = String::new();
        let lines: Vec<&str> = src.lines().collect();
        let mut i = 0usize;
        while i < lines.len() {
            let line_no = i + 1;
            let line = strip_comment(lines[i]).trim().to_owned();
            i += 1;
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_owned();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("expected `key = value` or `[section]`, got `{line}`"),
                });
            };
            let key = key.trim();
            let mut value = value.trim().to_owned();
            // Multi-line array: accumulate until the closing bracket.
            if value.starts_with('[') {
                while !value.contains(']') && i < lines.len() {
                    value.push(' ');
                    value.push_str(strip_comment(lines[i]).trim());
                    i += 1;
                }
            }
            apply(&mut config, &section, key, &value, line_no)?;
        }
        Ok(config)
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn apply(
    config: &mut Config,
    section: &str,
    key: &str,
    value: &str,
    line: usize,
) -> Result<(), ConfigError> {
    let slot: Option<&mut Vec<String>> = match (section, key) {
        ("paths", "skip") => Some(&mut config.skip),
        ("shard", "include") => Some(&mut config.shard),
        ("exhaustive", "include") => Some(&mut config.exhaustive),
        ("exhaustive", "covers") => {
            config.covers = parse_covers(value, line)?;
            return Ok(());
        }
        ("numeric", "include") => Some(&mut config.numeric),
        _ => None,
    };
    match slot {
        Some(slot) => {
            *slot = parse_array(value, line)?;
            Ok(())
        }
        None => Err(ConfigError {
            line,
            message: format!("unknown key `{key}` in section `[{section}]`"),
        }),
    }
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected a quoted string, got `{value}`"),
        })
}

/// Parses `covers` entries: each array element is a three-field
/// whitespace-separated string, `"Enum def_file cover_file"`.
fn parse_covers(value: &str, line: usize) -> Result<Vec<CoverSpec>, ConfigError> {
    let mut out = Vec::new();
    for entry in parse_array(value, line)? {
        let fields: Vec<&str> = entry.split_whitespace().collect();
        let [enum_name, def_file, cover_file] = fields.as_slice() else {
            return Err(ConfigError {
                line,
                message: format!(
                    "covers entry `{entry}` must be `\"Enum def_file cover_file\"` \
                     (three whitespace-separated fields)"
                ),
            });
        };
        out.push(CoverSpec {
            enum_name: (*enum_name).to_owned(),
            def_file: (*def_file).to_owned(),
            cover_file: (*cover_file).to_owned(),
        });
    }
    Ok(out)
}

fn parse_array(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected `[\"…\", …]`, got `{value}`"),
        })?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(item, line)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_arrays() {
        let config = Config::parse(
            "[paths]\nskip = [\"target\", \"vendor\"]  # build output\n\n\
             [shard]\ninclude = [\"crates/sim/src\"]\n\n\
             [numeric]\ninclude = []\n",
        )
        .expect("parses");
        assert_eq!(config.skip, vec!["target", "vendor"]);
        assert_eq!(config.shard, vec!["crates/sim/src"]);
        assert!(config.numeric.is_empty());
    }

    #[test]
    fn multi_line_arrays_accumulate() {
        let config = Config::parse(
            "[paths]\nskip = [\n    \"target\",  # comment inside\n    \"vendor\",\n]\n",
        )
        .expect("parses");
        assert_eq!(config.skip, vec!["target", "vendor"]);
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let config = Config::parse("[paths]\nskip = [\"with#hash\"]\n").expect("parses");
        assert_eq!(config.skip, vec!["with#hash"]);
    }

    #[test]
    fn unknown_keys_are_rejected_with_line_numbers() {
        let err = Config::parse("[paths]\nbogus = \"x\"\n").expect_err("rejects");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn retired_determinism_and_robustness_sections_are_rejected() {
        // The D- and R-rules moved to clippy; a stale config must fail
        // loudly rather than silently scope nothing.
        for section in ["determinism", "robustness"] {
            let err = Config::parse(&format!("[{section}]\ninclude = []\n"))
                .expect_err("rejects the retired section");
            assert!(err.message.contains(section), "{err}");
        }
    }

    #[test]
    fn committed_default_matches_parsed_repo_config() {
        // The Default impl documents the committed lint.toml; if the
        // two drift, the fallback silently lints the wrong scopes.
        let src = include_str!("../../../lint.toml");
        let parsed = Config::parse(src).expect("repo lint.toml parses");
        assert_eq!(parsed, Config::default());
    }

    #[test]
    fn covers_triples_parse_and_malformed_ones_fail() {
        let config = Config::parse(
            "[exhaustive]\ncovers = [\"SimEvent crates/sim/src/trace.rs crates/core/src/observe.rs\"]\n",
        )
        .expect("parses");
        assert_eq!(
            config.covers,
            vec![CoverSpec {
                enum_name: "SimEvent".to_owned(),
                def_file: "crates/sim/src/trace.rs".to_owned(),
                cover_file: "crates/core/src/observe.rs".to_owned(),
            }]
        );
        let err = Config::parse("[exhaustive]\ncovers = [\"only-two fields\"]\n")
            .expect_err("rejects two-field entry");
        assert!(err.message.contains("three whitespace-separated fields"));
    }
}

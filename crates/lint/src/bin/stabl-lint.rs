//! `stabl-lint` CLI.
//!
//! ```text
//! stabl-lint [--root DIR] [--config FILE] [--format human|json] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use stabl_lint::{Config, Engine, RULES};
use std::path::PathBuf;
use std::process;

struct Args {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    json: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        config: None,
        json: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?))
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?))
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("human") => args.json = false,
                other => return Err(format!("--format expects human|json, got {other:?}")),
            },
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                println!(
                    "stabl-lint [--root DIR] [--config FILE] [--format human|json] [--list-rules]"
                );
                process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Walks up from the current directory to the first one holding a
/// `lint.toml` or a `.git` marker.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("lint.toml").is_file() || dir.join(".git").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("stabl-lint: {msg}");
            process::exit(2);
        }
    };

    if args.list_rules {
        for rule in RULES {
            println!("{}: {}", rule.id, rule.summary);
            println!("    fix: {}", rule.hint);
        }
        return;
    }

    let root = args.root.unwrap_or_else(find_root);
    let engine = match &args.config {
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(src) => src,
                Err(e) => {
                    eprintln!("stabl-lint: cannot read {}: {e}", path.display());
                    process::exit(2);
                }
            };
            match Config::parse(&src) {
                Ok(config) => Engine::new(&root, config),
                Err(e) => {
                    eprintln!("stabl-lint: {e}");
                    process::exit(2);
                }
            }
        }
        None => match Engine::from_root(&root) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("stabl-lint: {e}");
                process::exit(2);
            }
        },
    };
    let report = match engine.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stabl-lint: scan failed: {e}");
            process::exit(2);
        }
    };

    if args.json {
        print!("{}", report.json());
    } else {
        print!("{}", report.human());
    }
    if !report.diagnostics.is_empty() {
        process::exit(1);
    }
}

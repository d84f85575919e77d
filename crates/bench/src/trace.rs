//! Shared command-line handling for the bench binaries.
//!
//! Every binary reports progress through [`dod_obs`] events instead of
//! ad-hoc prints: pass `--trace <path>` to capture the run as JSONL, or
//! `--profile` to append an aggregated summary after the (stable) table
//! output. With neither flag the handle is [`dod_obs::Obs::null`] and
//! costs nothing.
//!
//! Any other argument is checked against what the binary knows: an
//! unknown flag, experiment or dataset is an error, never skipped.

use dod_obs::Session;

/// The datasets `diag` and `planviz` take as their first argument.
pub const DATASETS: [&str; 3] = ["region", "hierarchy", "tiger"];

/// Splits `--trace <path>` / `--profile` out of `args` and opens the
/// session they ask for, returning the remaining arguments. Any other
/// argument starting with `--` must be one of the binary's own `flags`.
pub fn from_args(args: Vec<String>, flags: &[&str]) -> Result<(Vec<String>, Session), String> {
    let mut rest = Vec::new();
    let mut trace_path = None;
    let mut profile = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(
                    it.next()
                        .ok_or_else(|| "--trace needs a value".to_string())?,
                );
            }
            "--profile" => profile = true,
            flag if flag.starts_with("--") && !flags.contains(&flag) => {
                return Err(format!("unknown flag {flag}"));
            }
            _ => rest.push(arg),
        }
    }
    Ok((rest, Session::open(trace_path.as_deref(), profile)?))
}

/// Checks that `name` is one of the `known` values of a `what`.
pub fn check_name(what: &str, name: &str, known: &[&str]) -> Result<(), String> {
    if known.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown {what} {name} (expected one of: {})",
            known.join(", ")
        ))
    }
}

/// Reports an argument error with the binary's usage line and exits 1.
pub fn usage_error(err: &str, usage: &str) -> ! {
    eprintln!("error: {err}\nusage: {usage}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn plain_args_pass_through_disabled() {
        let (rest, session) = from_args(v(&["region", "--small"]), &["--small"]).unwrap();
        assert_eq!(rest, v(&["region", "--small"]));
        assert!(!session.obs().enabled());
        assert_eq!(session.finish(), "");
    }

    #[test]
    fn profile_enables_memory_sink() {
        let (rest, session) = from_args(v(&["--profile", "tiger"]), &[]).unwrap();
        assert_eq!(rest, v(&["tiger"]));
        let obs = session.obs();
        assert!(obs.enabled());
        obs.counter("c", 2, &[]);
        assert!(session.finish().starts_with("\n-- profile --\n"));
    }

    #[test]
    fn dangling_trace_value_is_an_error() {
        assert!(from_args(v(&["--trace"]), &[]).is_err());
    }

    #[test]
    fn unknown_flags_and_names_are_errors() {
        let err = from_args(v(&["--smal"]), &["--small"]).err().unwrap();
        assert_eq!(err, "unknown flag --smal");
        assert!(from_args(v(&["--small"]), &[]).is_err());
        assert!(check_name("dataset", "tiger", &DATASETS).is_ok());
        let err = check_name("dataset", "tigr", &DATASETS).unwrap_err();
        assert_eq!(
            err,
            "unknown dataset tigr (expected one of: region, hierarchy, tiger)"
        );
    }

    #[test]
    fn trace_writes_jsonl() {
        let mut path = std::env::temp_dir();
        path.push(format!("bench-trace-test-{}.jsonl", std::process::id()));
        let s = path.to_string_lossy().into_owned();
        let (rest, session) = from_args(v(&["--trace", &s]), &[]).unwrap();
        assert!(rest.is_empty());
        session.obs().mark("m", &[]);
        assert_eq!(session.finish(), format!("trace written to {s}\n"));
        let events = dod_obs::replay::read_jsonl(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "m");
        std::fs::remove_file(&path).ok();
    }
}

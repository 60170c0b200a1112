//! Property tests of the repro binaries' argument surface: whatever argv
//! arrives, the runner either runs the body or refuses with exit 2 before
//! it, never panicking, and a flag outside the accepted set is refused by
//! name.

use fcn_bench::{Failure, RunOpts};
use fcn_cli::Args;
use proptest::prelude::*;

const TOKENS: [&str; 24] = [
    "--quick",
    "--full",
    "--jobs",
    "--jobs=2",
    "--jobs=x",
    "--timeout",
    "--resume",
    "--keep-going",
    "--quikc",
    "--",
    "-",
    "",
    "0",
    "1",
    "3",
    "-1",
    "x",
    "true",
    "false",
    "stray",
    "18446744073709551616",
    "--quick=false",
    "--full=true",
    "--=",
];

/// A flag name of lowercase letters, digits and dashes.
fn flag_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..37, 1..9).prop_map(|chars| {
        chars
            .iter()
            .map(|&c| b"abcdefghijklmnopqrstuvwxyz0123456789-"[c] as char)
            .collect()
    })
}

fn argv(tokens: &[usize]) -> Vec<String> {
    std::iter::once("table1")
        .chain(tokens.iter().map(|&t| TOKENS[t]))
        .map(String::from)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_argv_runs_the_body_or_exits_two(
        tokens in proptest::collection::vec(0..TOKENS.len(), 0..6),
        extra in any::<bool>()
    ) {
        let argv = argv(&tokens);
        let extra: &[&str] = if extra { &["timeout", "resume", "keep-going"] } else { &[] };
        let mut ran = None;
        let code = fcn_bench::run(&argv, extra, &mut Vec::new(), |_, opts, _| {
            ran = Some(opts.clone());
            Ok::<(), Failure>(())
        });
        let parsed = Args::parse(&argv).and_then(|args| RunOpts::from_args(&args, extra));
        let want = if parsed.is_ok() { 0 } else { 2 };
        prop_assert!(code == want, "{argv:?} exited {code}, not {want}");
        prop_assert!(ran == parsed.ok(), "{argv:?}: the body ran with {ran:?}");
    }

    #[test]
    fn a_flag_outside_the_accepted_set_is_refused_by_name(
        name in flag_name(),
        tokens in proptest::collection::vec(0usize..5, 0..4)
    ) {
        prop_assume!(!["quick", "full", "jobs", "metrics-out"].contains(&name.as_str()));
        // Around it, only flags the binaries accept (and a stray word).
        let around = ["--quick", "--jobs", "2", "--full=false", "stray"];
        let mut argv = vec!["table1".to_string(), format!("--{name}")];
        argv.extend(tokens.iter().map(|&t| around[t].to_string()));
        let err = Args::parse(&argv)
            .and_then(|args| RunOpts::from_args(&args, &[]))
            .expect_err("an unknown flag parsed");
        prop_assert!(err.0.contains(&name), "{:?}: {}", argv, err);
    }
}

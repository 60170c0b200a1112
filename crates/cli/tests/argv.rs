//! Property tests of `fcnemu`'s argument surface: whatever argv arrives,
//! `fcn_cli::run` answers with a normal run or a typed error, never a
//! panic, and a flag a subcommand does not name is refused by name.
//!
//! The vocabulary leaves out `serve` and `request` (they bind or dial
//! sockets) and `--metrics-out` (it writes files); every size it offers is
//! small, so each case runs in milliseconds.

use proptest::prelude::*;

/// Each command with the kinds of its positionals: `f` a family, `n` a
/// size, `t` a table number, `p` a snapshot path.
const COMMANDS: [(&str, &str); 16] = [
    ("machines", ""),
    ("build", "fn"),
    ("beta", "fn"),
    ("faults", "fn"),
    ("bound", "ff"),
    ("emulate", "fnfn"),
    ("audit", "fn"),
    ("witness", "fn"),
    ("verify", "fn"),
    ("table", "t"),
    ("fig1", "ff"),
    ("metrics", "p"),
    ("help", ""),
    ("--help", ""),
    ("-h", ""),
    ("bogus", "f"),
];

const FAMILIES: [&str; 9] = [
    "mesh2",
    "tree",
    "de_bruijn",
    "ring",
    "butterfly",
    "xtree",
    "global_bus",
    "weak_ppn",
    "no_such",
];

const SIZES: [&str; 9] = [
    "0",
    "1",
    "2",
    "3",
    "8",
    "16",
    "-1",
    "x",
    "18446744073709551616",
];

const FLAGS: [&str; 22] = [
    "--seed",
    "--trials",
    "--steady",
    "--jobs",
    "--max-ticks",
    "--verbose",
    "--rates",
    "--fault-seed",
    "--quick",
    "--format",
    "--n",
    "--m",
    "--steps",
    "--alpha",
    "--hosts",
    "--size",
    "--bogus",
    "--trials=2",
    "--jobs=x",
    "--",
    "-",
    "",
];

const VALUES: [&str; 20] = [
    "0", "1", "2", "3", "16", "-1", "x", "0.5", "1e3", "NaN", "true", "dot", "edges", "json",
    "summary", "prom", "table", "jsonl", "0.1,0.2", "2,-1",
];

/// An argv: a command, positionals of the kinds it takes (or, one case in
/// eight, of any kind and count), then up to four flags with values.
fn argv() -> impl Strategy<Value = Vec<String>> {
    (
        0..COMMANDS.len(),
        proptest::collection::vec(any::<u16>(), 0..5),
        0u8..8,
        proptest::collection::vec((0..FLAGS.len(), 0..VALUES.len() + 1), 0..5),
    )
        .prop_map(|(command, picks, shape, flags)| {
            let (name, kinds) = COMMANDS[command];
            let kinds: Vec<char> = if shape == 0 {
                picks
                    .iter()
                    .map(|p| ['f', 'n', 't', 'p'][*p as usize % 4])
                    .collect()
            } else {
                kinds.chars().collect()
            };
            let mut argv = vec![name.to_string()];
            for (i, kind) in kinds.iter().enumerate() {
                let pick = picks.get(i).copied().unwrap_or(0) as usize;
                argv.push(match kind {
                    'f' => FAMILIES[pick % FAMILIES.len()].to_string(),
                    'n' => SIZES[pick % SIZES.len()].to_string(),
                    't' => ["1", "2", "3", "4"][pick % 4].to_string(),
                    _ => "no/such/snapshot.jsonl".to_string(),
                });
            }
            for (flag, value) in flags {
                argv.push(FLAGS[flag].to_string());
                argv.extend(VALUES.get(value).map(|v| v.to_string()));
            }
            argv
        })
}

/// A flag name of lowercase letters, digits and dashes.
fn flag_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..37, 1..9).prop_map(|chars| {
        chars
            .iter()
            .map(|&c| b"abcdefghijklmnopqrstuvwxyz0123456789-"[c] as char)
            .collect()
    })
}

/// A value-taking flag given without its value is a usage error naming the
/// flag, checked on the real binary in a directory of its own: a bare
/// `--metrics-out` must not write a snapshot to a file named `true`.
#[test]
fn a_value_flag_without_its_value_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("fcn-cli-bare-flag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (argv, flag) in [
        (&["machines", "--metrics-out"][..], "--metrics-out"),
        (&["beta", "mesh2", "16", "--jobs"][..], "--jobs"),
        (
            &["build", "ring", "8", "--format", "--seed", "1"][..],
            "--format",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fcnemu"))
            .args(argv)
            .current_dir(&dir)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {text}");
        assert!(
            text.contains(&format!("error: {flag} needs a value")),
            "{argv:?}: {text}"
        );
    }
    // Bare boolean flags keep working.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fcnemu"))
        .args(["beta", "mesh2", "16", "--trials", "1", "--verbose"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(
        !dir.join("true").exists(),
        "a bare --metrics-out wrote a file named `true`"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_argv_runs_or_fails_typed(argv in argv()) {
        let mut out = Vec::new();
        let code = fcn_cli::run(&argv, &mut out);
        prop_assert!((0..=2).contains(&code), "{argv:?} exited {code}");
        if code != 0 {
            let text = String::from_utf8_lossy(&out);
            prop_assert!(text.contains("error: "), "{argv:?} failed silently: {text}");
        }
    }

    #[test]
    fn an_unnamed_flag_is_refused_by_name(name in flag_name()) {
        let usage = fcn_cli::commands::usage();
        prop_assume!(name != "metrics-out" && !usage.contains(&format!("--{name} ")));
        prop_assume!(!usage.contains(&format!("--{name}]")));
        let argv: Vec<String> = ["beta", "mesh2", "16", &format!("--{name}")]
            .iter()
            .map(|t| t.to_string())
            .collect();
        let mut out = Vec::new();
        let code = fcn_cli::run(&argv, &mut out);
        let text = String::from_utf8_lossy(&out);
        prop_assert_eq!(code, 1);
        prop_assert!(text.contains(&format!("unknown flag --{name} ")), "{text}");
    }
}

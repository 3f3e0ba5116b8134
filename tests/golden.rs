//! Golden-file tests for the trace renderers: the single-trace profile,
//! folded flamegraph stacks and the cross-run profile diff, compared
//! byte-for-byte against committed fixtures under `tests/golden/`.
//!
//! To regenerate after an intentional renderer change:
//!
//! ```bash
//! DAIL_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use dail_sql::obskit::{fmt_ns, parse_jsonl, Event, Profile, ProfileDiff};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn load_events(name: &str) -> Vec<Event> {
    let path = golden_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    parse_jsonl(&text).unwrap_or_else(|e| panic!("fixture {name} must be a valid trace: {e}"))
}

/// Compare `actual` against the committed golden file, or rewrite the file
/// when `DAIL_UPDATE_GOLDEN=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("DAIL_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot update golden {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}\nrun `DAIL_UPDATE_GOLDEN=1 cargo test --test golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "renderer output diverged from golden {name}; if the change is \
         intentional, regenerate with `DAIL_UPDATE_GOLDEN=1 cargo test --test golden`"
    );
}

#[test]
fn profile_markdown_matches_golden() {
    let profile = Profile::from_events(&load_events("baseline_trace.jsonl"));
    check_golden("baseline_profile.md", &profile.to_markdown());
}

#[test]
fn folded_stacks_match_golden() {
    let flame = Profile::from_events(&load_events("baseline_trace.jsonl")).flame;
    check_golden("baseline_trace.folded", &flame.folded());
}

#[test]
fn profile_diff_markdown_matches_golden() {
    let base = Profile::from_events(&load_events("baseline_trace.jsonl"));
    let slow = Profile::from_events(&load_events("slowdown_trace.jsonl"));
    check_golden(
        "profile_diff.md",
        &ProfileDiff::between(&base, &slow).to_markdown(),
    );
}

/// Traces built from the baseline fixture, with the wall-clock each must
/// report: the fixture itself, the run cut off after its first 20 lines,
/// its first 23 lines twice (two runs with the same span ids), and its
/// first two spans with the child (25ns) outlasting its parent (10ns).
fn wall_clock_cases() -> Vec<(&'static str, Vec<Event>, &'static str)> {
    let base = load_events("baseline_trace.jsonl");
    // Line n of the fixture is event n - 1; events 1 and 2 start the
    // `run` (id 1) and `evaluate` (id 2) spans.
    let end = |id: u64, name: &str, dur_ns: u64| Event::SpanEnd {
        id,
        name: name.into(),
        dur_ns,
    };
    let overlong = vec![
        base[1].clone(),
        base[2].clone(),
        end(2, "evaluate", 25),
        end(1, "run", 10),
    ];
    vec![
        ("cut after 20 lines", base[..20].to_vec(), "5.9ms"),
        (
            "23 lines twice",
            [&base[..23], &base[..23]].concat(),
            "20.0ms",
        ),
        ("child outlasts parent", overlong, "25ns"),
        ("baseline", base, "10.0ms"),
    ]
}

#[test]
fn flame_root_width_equals_trace_wall_clock() {
    for (case, events, wall) in wall_clock_cases() {
        let profile = Profile::from_events(&events);
        let wall_ns = profile.wall_ns();
        assert_eq!(fmt_ns(wall_ns), wall, "{case}");
        assert_eq!(profile.flame.wall_ns(), wall_ns, "{case}");
        let stage_self: u64 = profile.stages.values().map(|s| s.self_ns).sum();
        assert_eq!(stage_self, wall_ns, "{case}: stage self-times");
        // The SVG advertises the same width on its root frame...
        let root = format!("data-name=\"all\" data-ns=\"{wall_ns}\"");
        assert!(
            profile.flame.to_svg().contains(&root),
            "{case}: root frame must span the wall-clock"
        );
        // ...the folded self-times sum exactly to it, and each stage's
        // folded self-time is the one the profile reports.
        let mut folded_by_name: BTreeMap<String, u64> = BTreeMap::new();
        for line in profile.flame.folded().lines() {
            let (stack, self_ns) = line.rsplit_once(' ').unwrap();
            let name = stack.rsplit(';').next().unwrap().to_string();
            *folded_by_name.entry(name).or_insert(0) += self_ns.parse::<u64>().unwrap();
        }
        assert_eq!(folded_by_name.values().sum::<u64>(), wall_ns, "{case}");
        let stage_by_name: BTreeMap<String, u64> = profile
            .stages
            .iter()
            .filter(|(_, s)| s.self_ns > 0)
            .map(|(name, s)| (name.clone(), s.self_ns))
            .collect();
        folded_by_name.retain(|_, self_ns| *self_ns > 0);
        assert_eq!(folded_by_name, stage_by_name, "{case}");
    }
}

#[test]
fn slowdown_fixture_trips_the_gate_and_baseline_does_not() {
    let base = Profile::from_events(&load_events("baseline_trace.jsonl"));
    let slow = Profile::from_events(&load_events("slowdown_trace.jsonl"));
    // Identical traces: clean at any threshold.
    assert!(ProfileDiff::between(&base, &base)
        .regressions(0.0)
        .is_empty());
    // The slowdown fixture regresses `predict` by ~33% and nothing else.
    let regressed = ProfileDiff::between(&base, &slow).regressions(10.0);
    assert_eq!(regressed.len(), 1, "{regressed:?}");
    assert_eq!(regressed[0].0, "predict");
    assert!((regressed[0].1 - 100.0 / 3.0).abs() < 0.1, "{regressed:?}");
}

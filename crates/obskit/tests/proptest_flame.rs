//! Property tests for the span fold and the lossy trace reader.
//!
//! Random span traces must satisfy the fold's core conservation law:
//! every nanosecond of wall-clock is attributed to exactly one frame's
//! self time, so folded stacks and per-stage self times each sum to the
//! wall-clock, the SVG root advertises the same width, and per-stage self
//! times agree between the [`obskit::Flame`] and [`obskit::Profile`]
//! views. Besides complete, well-nested forests with unique ids, the
//! generator emits runs cut off mid-way (a dropped suffix of events),
//! several runs reusing one id range (concatenated traces), and parents
//! that close shorter than their children. The lossy reader must drop
//! precisely the corrupted lines, never panic.

use obskit::{canonical_jsonl, parse_jsonl_lossy, Event, FlameNode, Profile};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A span subtree: name index into a small pool (so sibling merges happen
/// often), explicit self time, whether the span closes shorter than its
/// children, and child subtrees.
#[derive(Debug, Clone)]
struct TreeSpec {
    name_idx: usize,
    self_ns: u64,
    short: bool,
    children: Vec<TreeSpec>,
}

const NAMES: [&str; 6] = ["run", "evaluate", "item", "predict", "score", "encode"];

fn tree() -> BoxedStrategy<TreeSpec> {
    (0usize..NAMES.len(), 1u64..1_000_000)
        .prop_map(|(name_idx, self_ns)| TreeSpec {
            name_idx,
            self_ns,
            short: false,
            children: Vec::new(),
        })
        .prop_recursive(3, 16, 3, |inner| {
            (
                0usize..NAMES.len(),
                0u64..1_000_000,
                0u32..5,
                proptest::collection::vec(inner, 1..4),
            )
                .prop_map(|(name_idx, self_ns, short, children)| TreeSpec {
                    name_idx,
                    self_ns,
                    short: short == 0,
                    children,
                })
        })
}

/// One run's forest and the share of its events that survive, in percent
/// (below 100: the run was cut off mid-way).
fn run() -> impl Strategy<Value = (Vec<TreeSpec>, u64)> {
    (
        proptest::collection::vec(tree(), 1..4),
        prop_oneof![3 => Just(100u64), 1 => 1u64..100],
    )
}

/// One or more runs concatenated, each numbering its spans from 1.
fn trace() -> impl Strategy<Value = Vec<(Vec<TreeSpec>, u64)>> {
    proptest::collection::vec(run(), 1..3)
}

/// A generated span: its parent's index, the index of its end event, and
/// its width under the span rule.
struct SpanModel {
    parent: Option<usize>,
    end_at: usize,
    width: u64,
}

/// Emit one subtree's events; returns its width. A span lasts its self
/// time plus its children's widths, or half its children's widths when it
/// is `short`, and its width is the larger of its duration and its
/// children's widths.
fn emit(
    spec: &TreeSpec,
    parent: Option<(u64, usize)>,
    next_id: &mut u64,
    out: &mut Vec<Event>,
    spans: &mut Vec<SpanModel>,
) -> u64 {
    *next_id += 1;
    let id = *next_id;
    let me = spans.len();
    spans.push(SpanModel {
        parent: parent.map(|(_, at)| at),
        end_at: 0,
        width: 0,
    });
    out.push(Event::SpanStart {
        id,
        parent: parent.map(|(up, _)| up),
        name: NAMES[spec.name_idx].to_string(),
        t_ns: 0,
    });
    let mut kids = 0;
    for child in &spec.children {
        kids += emit(child, Some((id, me)), next_id, out, spans);
    }
    let dur = if spec.short {
        kids / 2
    } else {
        spec.self_ns + kids
    };
    spans[me].end_at = out.len();
    spans[me].width = dur.max(kids);
    out.push(Event::SpanEnd {
        id,
        name: NAMES[spec.name_idx].to_string(),
        dur_ns: dur,
    });
    dur.max(kids)
}

/// The trace's events and its expected wall-clock: the widths of the
/// spans that survive their run's cut and whose parent does not.
fn events_for(trace: &[(Vec<TreeSpec>, u64)]) -> (Vec<Event>, u64) {
    let mut events = Vec::new();
    let mut wall = 0;
    for (forest, keep_pct) in trace {
        let (mut out, mut spans, mut next_id) = (Vec::new(), Vec::new(), 0);
        for tree in forest {
            emit(tree, None, &mut next_id, &mut out, &mut spans);
        }
        let keep = (out.len() as u64 * keep_pct).div_ceil(100) as usize;
        out.truncate(keep);
        let closed = |s: &SpanModel| s.end_at < keep;
        wall += spans
            .iter()
            .filter(|s| closed(s) && !s.parent.is_some_and(|up| closed(&spans[up])))
            .map(|s| s.width)
            .sum::<u64>();
        events.extend(out);
    }
    (events, wall)
}

/// Sum each frame name's self time across the whole flame tree.
fn flame_self_by_name(node: &FlameNode, out: &mut BTreeMap<String, u64>) {
    for (name, child) in &node.children {
        *out.entry(name.clone()).or_insert(0) += child.self_ns();
        flame_self_by_name(child, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Folded self-times, stage self-times and the SVG root width all
    /// equal the wall-clock.
    #[test]
    fn every_nanosecond_lands_in_exactly_one_frame(t in trace()) {
        let (events, wall) = events_for(&t);
        let profile = Profile::from_events(&events);
        prop_assert_eq!(profile.wall_ns(), wall);
        let flame = &profile.flame;
        prop_assert_eq!(flame.wall_ns(), wall);
        let stage_sum: u64 = profile.stages.values().map(|s| s.self_ns).sum();
        prop_assert_eq!(stage_sum, wall);
        let folded_sum: u64 = flame
            .folded()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        prop_assert_eq!(folded_sum, wall, "folded:\n{}", flame.folded());
        // A trace cut before its first span closed draws no frame at all.
        let root = format!("data-name=\"all\" data-ns=\"{wall}\"");
        prop_assert!(wall == 0 || flame.to_svg().contains(&root), "missing root frame of width {wall}");
    }

    /// Per-stage self times agree between the flame tree (which keeps one
    /// node per stack) and the stage stats (which aggregate by name alone).
    #[test]
    fn flame_and_profile_attribute_identical_self_times(t in trace()) {
        let (events, _) = events_for(&t);
        let profile = Profile::from_events(&events);
        let mut by_name = BTreeMap::new();
        flame_self_by_name(&profile.flame.root, &mut by_name);
        let profile_by_name: BTreeMap<String, u64> = profile
            .stages
            .iter()
            .map(|(name, s)| (name.clone(), s.self_ns))
            .collect();
        prop_assert_eq!(by_name, profile_by_name);
    }

    /// Corrupting one line loses exactly that event: everything else still
    /// parses, and the single warning names the corrupted line.
    #[test]
    fn lossy_parse_drops_only_the_corrupted_line(t in trace(), pick in 0u64..1_000_000) {
        let (events, _) = events_for(&t);
        let text = canonical_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        let k = (pick as usize) % lines.len();
        let corrupted: String = lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                // Chop the victim line mid-object so it cannot be valid JSON.
                if i == k { &l[..l.len() / 2] } else { l }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let (parsed, warnings) = parse_jsonl_lossy(&corrupted);
        let mut expected = events.clone();
        expected.remove(k);
        // The lossy parser reports the skip as a trailing synthetic counter.
        expected.push(obskit::Event::Counter {
            name: obskit::SKIPPED_LINES_COUNTER.into(),
            value: 1,
        });
        // Event equality ignores timestamps, so the zeroed canonical times
        // do not get in the way of the comparison.
        prop_assert_eq!(parsed, expected);
        prop_assert_eq!(warnings.len(), 1, "{warnings:?}");
        prop_assert!(warnings[0].starts_with(&format!("line {}:", k + 1)), "{warnings:?}");
    }
}

//! Flamegraph rendering: draw the merged stacks of a folded trace as
//! folded-stack text or a self-contained SVG.
//!
//! [`crate::Profile::from_events`] builds the [`Flame`]: spans with the
//! same stack of names merge into one *frame*, and the whole forest hangs
//! under a synthetic `all` root whose width is the trace wall-clock. A
//! frame's width is the sum of its spans' widths, where a span's width is
//! the larger of its duration and its children's widths (clock jitter on
//! very short spans can make a child outlast its parent), so the
//! self-times of all frames sum exactly to the root width.
//!
//! Two renderers:
//!
//! * [`Flame::folded`] — classic folded-stack text (`a;b;c <self_ns>`, one
//!   line per frame, sorted), consumable by external flamegraph tooling and
//!   easy to diff in golden tests.
//! * [`Flame::to_svg`] — a dependency-free icicle SVG with hover titles.
//!   Every `<rect>` carries `data-name` and `data-ns` attributes so tests
//!   (and scripts) can check widths without a pixel renderer.

use crate::profile::fmt_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// SVG layout constants.
const CHART_W: f64 = 1200.0;
const PAD: f64 = 10.0;
const TITLE_H: f64 = 24.0;
const FRAME_H: f64 = 17.0;
const MIN_PX: f64 = 0.1;

/// One merged frame: every span sharing the same stack of names.
#[derive(Debug, Clone, Default)]
pub struct FlameNode {
    /// Sum of the durations of the spans merged into this frame, ns.
    pub total_ns: u64,
    /// Frame width: the sum of the merged spans' widths, each the larger
    /// of the span's duration and its children's widths, ns.
    pub width_ns: u64,
    /// Number of spans merged into this frame.
    pub count: u64,
    /// Child frames, keyed by stage name.
    pub children: BTreeMap<String, FlameNode>,
}

impl FlameNode {
    /// Width not covered by children — the frame's self-time.
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.values().map(|c| c.width_ns).sum();
        self.width_ns.saturating_sub(kids)
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FlameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// The spans of a trace merged by stack of names, as folded by
/// [`crate::Profile::from_events`].
#[derive(Debug, Clone, Default)]
pub struct Flame {
    /// Synthetic root (`all`) covering every root span in the trace.
    pub root: FlameNode,
}

impl Flame {
    /// Root frame width = trace wall-clock, ns.
    pub fn wall_ns(&self) -> u64 {
        self.root.width_ns
    }

    /// Folded-stack text: one `stack;of;names <self_ns>` line per frame
    /// with nonzero self-time (childless frames are kept even at zero so
    /// the tree shape survives), sorted by stack for determinism. The
    /// synthetic `all` root is omitted, as external flamegraph tools add
    /// their own.
    pub fn folded(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        let mut stack: Vec<&str> = Vec::new();
        fn walk<'a>(node: &'a FlameNode, stack: &mut Vec<&'a str>, lines: &mut Vec<String>) {
            for (name, child) in &node.children {
                stack.push(name);
                let self_ns = child.self_ns();
                if self_ns > 0 || child.children.is_empty() {
                    lines.push(format!("{} {}", stack.join(";"), self_ns));
                }
                walk(child, stack, lines);
                stack.pop();
            }
        }
        walk(&self.root, &mut stack, &mut lines);
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Render a self-contained icicle SVG (root on top). Frames narrower
    /// than a tenth of a pixel are culled along with their subtrees.
    pub fn to_svg(&self) -> String {
        let wall = self.wall_ns().max(1);
        let depth = self.root.depth();
        let height = PAD * 2.0 + TITLE_H + depth as f64 * FRAME_H;
        let inner_w = CHART_W - PAD * 2.0;
        let px_per_ns = inner_w / wall as f64;

        let mut s = String::with_capacity(4096);
        let _ = writeln!(
            s,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{CHART_W}\" height=\"{height}\" \
             viewBox=\"0 0 {CHART_W} {height}\" font-family=\"monospace\" font-size=\"11\">"
        );
        s.push_str(
            "<style>rect{stroke:#ffffff;stroke-width:0.4}text{fill:#1a1a1a}\
             .bg{fill:#fdf6ec;stroke:none}.title{font-size:13px;font-weight:bold}</style>\n",
        );
        let _ = writeln!(
            s,
            "<rect class=\"bg\" width=\"{CHART_W}\" height=\"{height}\"/>"
        );
        let _ = writeln!(
            s,
            "<text class=\"title\" x=\"{PAD}\" y=\"{}\">obskit flamegraph — wall {} over {} root frame(s)</text>",
            PAD + 14.0,
            fmt_ns(self.wall_ns()),
            self.root.children.len()
        );

        struct Ctx {
            px_per_ns: f64,
            wall: u64,
            top: f64,
        }
        fn frame(s: &mut String, ctx: &Ctx, name: &str, node: &FlameNode, x_ns: u64, level: usize) {
            let w_px = node.width_ns as f64 * ctx.px_per_ns;
            if w_px < MIN_PX {
                return;
            }
            let x = PAD + x_ns as f64 * ctx.px_per_ns;
            let y = ctx.top + level as f64 * FRAME_H;
            let pct = 100.0 * node.width_ns as f64 / ctx.wall as f64;
            let esc = xml_escape(name);
            let _ = writeln!(s, "<g>");
            let _ = writeln!(
                s,
                "<title>{esc} ({}, {pct:.1}% of wall, {} span(s))</title>",
                fmt_ns(node.width_ns),
                node.count.max(1)
            );
            let _ = writeln!(
                s,
                "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w_px:.2}\" height=\"{}\" rx=\"1\" \
                 fill=\"{}\" data-name=\"{esc}\" data-ns=\"{}\"/>",
                FRAME_H - 1.0,
                color_for(name),
                node.width_ns
            );
            if w_px >= name.len() as f64 * 6.8 + 6.0 {
                let _ = writeln!(
                    s,
                    "<text x=\"{:.2}\" y=\"{:.1}\">{esc}</text>",
                    x + 3.0,
                    y + 12.0
                );
            }
            let _ = writeln!(s, "</g>");
            let mut child_x = x_ns;
            for (child_name, child) in &node.children {
                frame(s, ctx, child_name, child, child_x, level + 1);
                child_x += child.width_ns;
            }
        }
        let ctx = Ctx {
            px_per_ns,
            wall,
            top: PAD + TITLE_H,
        };
        frame(&mut s, &ctx, "all", &self.root, 0, 0);
        s.push_str("</svg>\n");
        s
    }
}

/// Escape a frame name for use in XML attribute/text positions.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic warm fill color for a frame name (FNV-1a over the bytes,
/// folded into a small hue/lightness spread around flame orange).
fn color_for(name: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let hue = 14 + (h % 38); // 14..52: red-orange to amber
    let light = 55 + ((h >> 8) % 14); // 55..69%
    format!("hsl({hue}, 86%, {light}%)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn flame(events: &[Event]) -> Flame {
        crate::Profile::from_events(events).flame
    }

    fn span(id: u64, parent: Option<u64>, name: &str, dur: u64) -> [Event; 2] {
        [
            Event::SpanStart {
                id,
                parent,
                name: name.into(),
                t_ns: 0,
            },
            Event::SpanEnd {
                id,
                name: name.into(),
                dur_ns: dur,
            },
        ]
    }

    fn nested_trace() -> Vec<Event> {
        // run(100) -> predict(60) -> decode(45); run -> score(10)
        vec![
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into(),
                t_ns: 0,
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "predict".into(),
                t_ns: 1,
            },
            Event::SpanStart {
                id: 3,
                parent: Some(2),
                name: "decode".into(),
                t_ns: 2,
            },
            Event::SpanEnd {
                id: 3,
                name: "decode".into(),
                dur_ns: 45,
            },
            Event::SpanEnd {
                id: 2,
                name: "predict".into(),
                dur_ns: 60,
            },
            Event::SpanStart {
                id: 4,
                parent: Some(1),
                name: "score".into(),
                t_ns: 70,
            },
            Event::SpanEnd {
                id: 4,
                name: "score".into(),
                dur_ns: 10,
            },
            Event::SpanEnd {
                id: 1,
                name: "run".into(),
                dur_ns: 100,
            },
        ]
    }

    #[test]
    fn folded_self_times_sum_to_wall() {
        let f = flame(&nested_trace());
        assert_eq!(f.wall_ns(), 100);
        let folded = f.folded();
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 100, "{folded}");
        assert!(folded.contains("run;predict;decode 45"), "{folded}");
        assert!(folded.contains("run;predict 15"), "{folded}");
        assert!(folded.contains("run;score 10"), "{folded}");
        assert!(folded.contains("run 30"), "{folded}");
    }

    #[test]
    fn sibling_spans_with_same_name_merge() {
        let mut ev: Vec<Event> = Vec::new();
        ev.extend(span(1, None, "run", 100));
        // Two items under nothing (roots) merge into one frame.
        ev.extend(span(2, None, "run", 50));
        let f = flame(&ev);
        assert_eq!(f.root.children.len(), 1);
        assert_eq!(f.root.children["run"].total_ns, 150);
        assert_eq!(f.root.children["run"].count, 2);
        assert_eq!(f.wall_ns(), 150);
    }

    #[test]
    fn child_overflow_stretches_parent_width() {
        // Parent measured 10ns but child measured 25ns: the parent's frame
        // is widened so widths still sum and nothing goes negative.
        let ev = vec![
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "p".into(),
                t_ns: 0,
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "c".into(),
                t_ns: 1,
            },
            Event::SpanEnd {
                id: 2,
                name: "c".into(),
                dur_ns: 25,
            },
            Event::SpanEnd {
                id: 1,
                name: "p".into(),
                dur_ns: 10,
            },
        ];
        let p = crate::Profile::from_events(&ev);
        assert_eq!(p.wall_ns(), 25);
        assert_eq!(p.flame.root.children["p"].width_ns, 25);
        assert_eq!(p.flame.root.children["p"].self_ns(), 0);
        // The profile attributes the same self-times per stage.
        assert_eq!(p.stages["p"].self_ns, 0);
        assert_eq!(p.stages["c"].self_ns, 25);
    }

    #[test]
    fn unclosed_spans_and_metrics_are_ignored() {
        let mut ev = nested_trace();
        ev.push(Event::SpanStart {
            id: 99,
            parent: None,
            name: "zombie".into(),
            t_ns: 0,
        });
        ev.push(Event::Counter {
            name: "c".into(),
            value: 1,
        });
        let f = flame(&ev);
        assert!(!f.folded().contains("zombie"));
        assert_eq!(f.wall_ns(), 100);
    }

    #[test]
    fn orphaned_child_becomes_root() {
        // Parent id 7 never closes; the child still renders as a root frame.
        let ev = vec![
            Event::SpanStart {
                id: 2,
                parent: Some(7),
                name: "lost".into(),
                t_ns: 0,
            },
            Event::SpanEnd {
                id: 2,
                name: "lost".into(),
                dur_ns: 5,
            },
        ];
        let f = flame(&ev);
        assert_eq!(f.folded(), "lost 5\n");
        assert_eq!(f.wall_ns(), 5);
    }

    #[test]
    fn svg_root_frame_width_equals_wall() {
        let f = flame(&nested_trace());
        let svg = f.to_svg();
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"));
        let root_attr = format!("data-name=\"all\" data-ns=\"{}\"", f.wall_ns());
        assert!(svg.contains(&root_attr), "{svg}");
        assert!(svg.contains("data-name=\"decode\" data-ns=\"45\""), "{svg}");
    }

    #[test]
    fn svg_escapes_names() {
        let mut ev: Vec<Event> = Vec::new();
        ev.extend(span(1, None, "a<b>&\"c\"", 10));
        let svg = flame(&ev).to_svg();
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"), "{svg}");
        assert!(!svg.contains("a<b>"), "{svg}");
    }

    #[test]
    fn empty_trace_renders_empty() {
        let f = flame(&[]);
        assert_eq!(f.folded(), "");
        assert_eq!(f.wall_ns(), 0);
        assert!(f.to_svg().contains("</svg>"));
    }

    #[test]
    fn colors_are_deterministic_and_warm() {
        assert_eq!(color_for("predict"), color_for("predict"));
        assert_ne!(color_for("predict"), color_for("score"));
        assert!(color_for("x").starts_with("hsl("));
    }
}

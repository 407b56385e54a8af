//! Span analysis: self time and coverage from `ntc_obs` span records.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover. Children may nest, overlap (worker threads
//! of one `exec.par_map` run side by side) or reach past the parent's
//! end; only the union of their intervals, clipped to the parent,
//! counts as covered.

use std::collections::HashMap;

use ntc_obs::SpanRecord;

/// Nanoseconds of `[start, end)` covered by the union of `children`.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-span self time, with each span's coverage by its children.
#[derive(Debug, Clone)]
pub struct SpanSelf {
    /// The span's name.
    pub name: String,
    /// Total duration, ns.
    pub dur_ns: u64,
    /// Duration minus the interval its children cover, ns.
    pub self_ns: u64,
}

impl SpanSelf {
    /// Share of the span's time spent inside child spans.
    pub fn coverage(&self) -> f64 {
        if self.dur_ns == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let c = (self.dur_ns - self.self_ns) as f64 / self.dur_ns as f64;
        c
    }
}

/// Self time of every span in `spans`.
pub fn self_times(spans: &[SpanRecord]) -> Vec<SpanSelf> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let end = s.start_ns + s.dur_ns;
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            SpanSelf {
                name: s.name.to_string(),
                dur_ns: s.dur_ns,
                self_ns: s.dur_ns - covered_ns(s.start_ns, end, kids),
            }
        })
        .collect()
}

/// Summed self time, in ms, of every span whose name starts with `prefix`.
pub fn self_ms_with_prefix(selfs: &[SpanSelf], prefix: &str) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let ns = selfs
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.self_ns)
        .sum::<u64>() as f64;
    ns / 1e6
}

/// The largest summed self times by span name, in ms, largest first.
pub fn top_self_ms(selfs: &[SpanSelf], n: usize) -> Vec<(String, f64)> {
    let mut by_name: HashMap<&str, u64> = HashMap::new();
    for s in selfs {
        *by_name.entry(s.name.as_str()).or_default() += s.self_ns;
    }
    #[allow(clippy::cast_precision_loss)]
    let mut rows: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as f64 / 1e6))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(n);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(id: u64, parent: Option<u64>, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Owned(format!("s{id}")),
            thread: 0,
            start_ns: start,
            dur_ns: dur,
            shard: None,
            req: None,
            items: 0,
        }
    }

    #[test]
    fn nested_children_count_once() {
        // parent [0,100); child [10,60) with grandchild [20,30) inside it.
        let spans = [
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 50),
            rec(3, Some(2), 20, 10),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0].self_ns, 50);
        assert_eq!(selfs[1].self_ns, 40);
        assert_eq!(selfs[2].self_ns, 10);
        assert!((selfs[0].coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        // Two worker spans side by side on different threads: [10,50) and
        // [30,70) cover [10,70), not 80 ns.
        let spans = [
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 40),
            rec(3, Some(1), 30, 40),
        ];
        assert_eq!(self_times(&spans)[0].self_ns, 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent covers only the parent's part.
        assert_eq!(covered_ns(0, 100, &[(90, 150), (0, 5)]), 15);
        assert_eq!(covered_ns(50, 100, &[(0, 40)]), 0);
        // Disjoint, contained and duplicate intervals.
        assert_eq!(
            covered_ns(0, 100, &[(0, 10), (20, 30), (22, 28), (20, 30)]),
            20
        );
    }

    #[test]
    fn prefix_sums_and_top_list() {
        let mut spans = vec![
            rec(1, None, 0, 100),
            rec(2, Some(1), 0, 30),
            rec(3, Some(1), 40, 20),
        ];
        spans[1].name = Cow::Borrowed("exec.mc.shard");
        spans[2].name = Cow::Borrowed("exec.mc.shard");
        let selfs = self_times(&spans);
        assert!((self_ms_with_prefix(&selfs, "exec.") - 50e-6).abs() < 1e-15);
        let top = top_self_ms(&selfs, 1);
        assert_eq!(top[0].0, "exec.mc.shard");
    }
}

//! Self time per phase from the spans a traced solve recorded.
//!
//! A span's self time is its duration minus the time its direct children
//! cover. `Tracer::tracks()` lists each track's spans in end-time order
//! with their nesting depth, so one pass suffices: the depth-`d + 1` spans
//! that end between two depth-`d` ends are exactly the children of the
//! later one.

use spcg_obs::{Phase, SpanRecord, TrackSpans};

/// Number of phases in the tracer's fixed taxonomy.
pub const NPHASES: usize = Phase::ALL.len();

/// Per-phase self seconds, summed over every span of `spans` (one track).
pub fn self_times(spans: &[SpanRecord]) -> [f64; NPHASES] {
    let mut out = [0.0; NPHASES];
    // child_cover[d] = duration covered by finished depth-d spans whose
    // parent (at depth d - 1) has not ended yet.
    let mut child_cover: Vec<f64> = Vec::new();
    for s in spans {
        let d = s.depth;
        if child_cover.len() < d + 2 {
            child_cover.resize(d + 2, 0.0);
        }
        let dur = s.duration_s();
        let children = std::mem::take(&mut child_cover[d + 1]);
        out[s.phase.index()] += dur - children;
        child_cover[d] += dur;
    }
    out
}

/// Seconds of the track covered by top-level (depth-0) spans.
pub fn covered(spans: &[SpanRecord]) -> f64 {
    spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(SpanRecord::duration_s)
        .sum()
}

/// Self times and coverage summed over every track of a tracer, plus the
/// number of events the tracks dropped.
#[derive(Debug, Clone)]
pub struct TraceTotals {
    /// Per-phase self seconds, summed over tracks.
    pub self_s: [f64; NPHASES],
    /// Top-level span coverage, summed over tracks.
    pub covered_s: f64,
    /// Tracks seen.
    pub tracks: usize,
    /// Events dropped at the tracks' capacity.
    pub dropped: u64,
}

impl Default for TraceTotals {
    fn default() -> Self {
        TraceTotals {
            self_s: [0.0; NPHASES],
            covered_s: 0.0,
            tracks: 0,
            dropped: 0,
        }
    }
}

impl TraceTotals {
    /// Folds drained tracks in.
    pub fn add_tracks(&mut self, tracks: &[TrackSpans]) {
        for t in tracks {
            for (acc, v) in self.self_s.iter_mut().zip(self_times(&t.spans)) {
                *acc += v;
            }
            self.covered_s += covered(&t.spans);
            self.tracks += 1;
            self.dropped += t.dropped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, begin_s: f64, end_s: f64, depth: usize) -> SpanRecord {
        SpanRecord {
            phase,
            begin_s,
            end_s,
            depth,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // Gram [0, 10] holds Precond [1, 3] which holds Spmv [1.5, 2.5],
        // and VecUpdate [4, 6]; then a top-level Spmv [11, 12].
        // End order: Spmv(d2), Precond(d1), VecUpdate(d1), Gram(d0), Spmv(d0).
        let spans = [
            span(Phase::Spmv, 1.5, 2.5, 2),
            span(Phase::Precond, 1.0, 3.0, 1),
            span(Phase::VecUpdate, 4.0, 6.0, 1),
            span(Phase::Gram, 0.0, 10.0, 0),
            span(Phase::Spmv, 11.0, 12.0, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[Phase::Gram.index()], 6.0);
        assert_eq!(st[Phase::Precond.index()], 1.0);
        assert_eq!(st[Phase::VecUpdate.index()], 2.0);
        assert_eq!(st[Phase::Spmv.index()], 2.0);
        // Self times partition the covered time.
        let total: f64 = st.iter().sum();
        assert_eq!(total, covered(&spans));
        assert_eq!(covered(&spans), 11.0);
    }

    #[test]
    fn siblings_do_not_leak_into_the_next_parent() {
        // Two consecutive top-level spans, each with one child.
        let spans = [
            span(Phase::Spmv, 0.0, 1.0, 1),
            span(Phase::MpkLevel, 0.0, 4.0, 0),
            span(Phase::Spmv, 5.0, 7.0, 1),
            span(Phase::MpkLevel, 5.0, 8.0, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[Phase::MpkLevel.index()], 3.0 + 1.0);
        assert_eq!(st[Phase::Spmv.index()], 3.0);
    }
}

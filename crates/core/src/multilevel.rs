//! The multilevel driver: one coarsen → initial partition → project and
//! refine order for every execution policy.
//!
//! The paper's serial and parallel partitioners are one scheme. What
//! differs between them is how a level is matched and contracted (a
//! [`Coarsening`]), and how the coarsest graph is partitioned and a level
//! projected and refined (a [`Policy`]). This module owns the order, the
//! phase spans, the `coarsen_level` spans, the `project` spans, the
//! `uncoarsen_level` events, the seam checks and the level cap.
//!
//! The serial halves (`coarsen::Coarsener` and `kway::Serial`) serve every
//! `nthreads`, the cached [`crate::hierarchy::HierarchySnapshot`] and its
//! warm replay; the BSP policy in `mcgp_parallel::kway_par` is both halves
//! in one type, as its cost tracker spans the whole run. Recursive bisection's
//! 2-way multilevel bisection builds its levels with [`build_levels`] but
//! walks them with its own FM loop: it runs inside the initial phase, where
//! this driver's phase spans would count its time twice.

use mcgp_graph::{CheckLevel, Graph};
use mcgp_runtime::phase::{counter_add, Counter};
use mcgp_runtime::trace::{self, FieldValue, Span};
use mcgp_runtime::{span, Phase};

/// Safety cap on hierarchy depth.
pub const MAX_LEVELS: usize = 64;

/// One coarsening step: the coarse graph and the fine→coarse vertex map.
#[derive(Clone, Debug)]
pub struct Level<G> {
    /// The contracted graph.
    pub graph: G,
    /// `cmap[fine_vertex] = coarse_vertex` for the *finer* graph of this
    /// level.
    pub cmap: Vec<u32>,
}

impl<G> Level<G> {
    /// Projects a partition of this level's coarse graph onto its finer
    /// graph: every fine vertex takes its coarse vertex's part.
    pub fn project(&self, coarse_part: &[u32]) -> Vec<u32> {
        self.cmap.iter().map(|&c| coarse_part[c as usize]).collect()
    }
}

/// The one property of a level's graph the driver reads.
pub trait LevelGraph {
    /// Number of (global) vertices.
    fn nvtxs(&self) -> usize;
}

impl LevelGraph for Graph {
    fn nvtxs(&self) -> usize {
        Graph::nvtxs(self)
    }
}

/// Aborts on an invariant violation detected at a pipeline seam. These are
/// partitioner bugs (never input errors — those surface as `Result`s from
/// the I/O layer), so the driver fails loudly with the invariant's name.
pub fn enforce(result: mcgp_graph::Result<()>) {
    if let Err(e) = result {
        panic!("mcgp-check: {e}");
    }
}

/// The seams at which the driver has a policy validate the assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seam {
    /// After initial partitioning of the coarsest graph.
    Initial,
    /// After projecting onto a finer level.
    Projected,
    /// After refining a level.
    Refined,
    /// After the finishing pass on the finest level.
    Finished,
}

/// Fields a policy adds to one level's `uncoarsen_level` event.
pub type LevelFields = Vec<(&'static str, FieldValue)>;

/// How one level is matched and contracted: what [`build_levels`] needs.
pub trait Coarsening<G: LevelGraph> {
    /// Seam validation level; the driver skips the checks when it is off.
    fn check(&self) -> CheckLevel;

    /// Matches and contracts `cur`, the input graph of level `lvl`, or
    /// returns `None` when the matching stalls. May record fields on the
    /// level's `coarsen_level` span.
    fn coarsen_level(&mut self, cur: &G, lvl: usize, span: &mut Span) -> Option<Level<G>>;

    /// Seam: post-coarsen. Validates `level` against its finer graph.
    fn check_level(&self, finer: &G, level: &Level<G>);
}

/// How the coarsest graph is partitioned and each level projected and
/// refined: what [`uncoarsen`] needs. Every method runs at the point of
/// the multilevel order the driver calls it at; a policy keeps its own RNG
/// streams, cost accounting and workspaces.
pub trait Policy<G: LevelGraph> {
    /// Seam validation level; the driver skips the checks when it is off.
    fn check(&self) -> CheckLevel;

    /// Number of parts.
    fn nparts(&self) -> usize;

    /// Partitions the coarsest graph.
    fn initial(&mut self, coarsest: &G) -> Vec<u32>;

    /// Validates `part` on `graph` at `seam`.
    fn check_part(&self, seam: Seam, graph: &G, part: &[u32]);

    /// Balances and refines `part` on `graph`, the graph of level `lvl`
    /// (`coarsest` on the first call). Returns the level's event fields
    /// when tracing is on, and nothing otherwise.
    fn refine(&mut self, lvl: usize, coarsest: bool, graph: &G, part: &mut [u32]) -> LevelFields;

    /// Projects a partition of `level.graph` onto `finer`.
    fn project(&mut self, level: &Level<G>, finer: &G, part: &[u32]) -> Vec<u32>;

    /// The last pass on the finest level, after it has been refined.
    fn finish(&mut self, finest: &G, part: &mut [u32]);
}

/// Builds levels above `finest` until the next level's input has at most
/// `target` vertices, the policy's matching stalls, or [`MAX_LEVELS`] is
/// reached. Levels are finest-first.
///
/// A shallower build of the same graph with target `T` stops before
/// matching the first level whose input already has `≤ T` vertices, so its
/// levels are a prefix of a deeper build's and its exit RNG state is the
/// state before that level. That prefix property is what lets one deep
/// [`crate::HierarchySnapshot`] serve every `(nparts, ε)` bit-identically.
pub fn build_levels<G: LevelGraph>(
    coarsening: &mut impl Coarsening<G>,
    finest: &G,
    target: usize,
) -> Vec<Level<G>> {
    let mut levels: Vec<Level<G>> = Vec::new();
    loop {
        let lvl = levels.len();
        let cur = levels.last().map_or(finest, |l| &l.graph);
        if cur.nvtxs() <= target || lvl >= MAX_LEVELS {
            break;
        }
        let mut sp = span!("coarsen_level", level = lvl, nvtxs = cur.nvtxs());
        let Some(level) = coarsening.coarsen_level(cur, lvl, &mut sp) else {
            counter_add(Counter::ContractionAborts, 1);
            sp.record("aborted", 1u64);
            break;
        };
        sp.record("coarse_nvtxs", level.graph.nvtxs());
        sp.record("ratio", level.graph.nvtxs() as f64 / cur.nvtxs() as f64);
        drop(sp);
        if coarsening.check().enabled() {
            coarsening.check_level(cur, &level);
        }
        levels.push(level);
    }
    levels
}

/// Phase 1: [`build_levels`] under the `coarsen` phase span.
pub fn coarsen<G: LevelGraph>(
    coarsening: &mut impl Coarsening<G>,
    finest: &G,
    target: usize,
) -> Vec<Level<G>> {
    let _s = span!(Phase::Coarsen, nvtxs = finest.nvtxs());
    build_levels(coarsening, finest, target)
}

/// Phases 2 and 3: partitions the coarsest of `levels` (`finest` itself
/// when there are none), refines it, then projects and refines level by
/// level down to `finest` and finishes there. Returns the finest
/// assignment.
pub fn uncoarsen<G: LevelGraph>(
    policy: &mut impl Policy<G>,
    finest: &G,
    levels: &[Level<G>],
) -> Vec<u32> {
    let nlevels = levels.len();
    let check = policy.check().enabled();
    let coarsest = levels.last().map_or(finest, |l| &l.graph);
    let mut part = {
        let _s = span!(
            Phase::Initial,
            nvtxs = coarsest.nvtxs(),
            nparts = policy.nparts()
        );
        policy.initial(coarsest)
    };
    if check {
        policy.check_part(Seam::Initial, coarsest, &part);
    }
    {
        let _s = span!(Phase::Refine, nlevels = nlevels, nvtxs = finest.nvtxs());
        refine(policy, nlevels, true, coarsest, &mut part);
        for lvl in (0..nlevels).rev() {
            let finer = if lvl == 0 {
                finest
            } else {
                &levels[lvl - 1].graph
            };
            part = {
                let _p = span!("project", level = lvl, nvtxs = finer.nvtxs());
                policy.project(&levels[lvl], finer, &part)
            };
            if check {
                policy.check_part(Seam::Projected, finer, &part);
            }
            refine(policy, lvl, false, finer, &mut part);
        }
        policy.finish(finest, &mut part);
    }
    if check {
        policy.check_part(Seam::Finished, finest, &part);
    }
    part
}

/// One level of the finest-ward walk: refine, check, report.
fn refine<G: LevelGraph>(
    policy: &mut impl Policy<G>,
    lvl: usize,
    coarsest: bool,
    graph: &G,
    part: &mut [u32],
) {
    let fields = policy.refine(lvl, coarsest, graph, part);
    if policy.check().enabled() {
        policy.check_part(Seam::Refined, graph, part);
    }
    if trace::enabled() {
        let mut all: LevelFields = vec![("level", lvl.into()), ("nvtxs", graph.nvtxs().into())];
        all.extend(fields);
        trace::instant("uncoarsen_level", all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A graph of `n` vertices standing in for a level's graph.
    #[derive(Debug)]
    struct Fake(usize);

    impl LevelGraph for Fake {
        fn nvtxs(&self) -> usize {
            self.0
        }
    }

    /// One policy call, with the vertex counts it saw.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Call {
        Coarsen(usize, usize),
        LevelChecked(usize),
        Initial(usize),
        PartChecked(Seam, usize),
        Refine(usize, bool, usize),
        Project(usize, usize),
        Finish(usize),
    }

    /// Halves every level, stalls from level `stall_at` on, and logs every
    /// call in order.
    struct Recorder {
        check: CheckLevel,
        stall_at: usize,
        calls: RefCell<Vec<Call>>,
    }

    impl Recorder {
        fn log(&self, call: Call) {
            self.calls.borrow_mut().push(call);
        }
    }

    impl Coarsening<Fake> for Recorder {
        fn check(&self) -> CheckLevel {
            self.check
        }

        fn coarsen_level(&mut self, cur: &Fake, lvl: usize, _: &mut Span) -> Option<Level<Fake>> {
            self.log(Call::Coarsen(lvl, cur.0));
            (lvl < self.stall_at).then(|| Level {
                graph: Fake(cur.0.div_ceil(2)),
                cmap: (0..cur.0 as u32).map(|v| v / 2).collect(),
            })
        }

        fn check_level(&self, _: &Fake, level: &Level<Fake>) {
            self.log(Call::LevelChecked(level.graph.0));
        }
    }

    impl Policy<Fake> for Recorder {
        fn check(&self) -> CheckLevel {
            self.check
        }

        fn nparts(&self) -> usize {
            2
        }

        fn initial(&mut self, coarsest: &Fake) -> Vec<u32> {
            self.log(Call::Initial(coarsest.0));
            (0..coarsest.0 as u32).map(|v| v % 2).collect()
        }

        fn check_part(&self, seam: Seam, graph: &Fake, _: &[u32]) {
            self.log(Call::PartChecked(seam, graph.0));
        }

        fn refine(
            &mut self,
            lvl: usize,
            coarsest: bool,
            graph: &Fake,
            part: &mut [u32],
        ) -> LevelFields {
            assert_eq!(part.len(), graph.0);
            self.log(Call::Refine(lvl, coarsest, graph.0));
            Vec::new()
        }

        fn project(&mut self, level: &Level<Fake>, finer: &Fake, part: &[u32]) -> Vec<u32> {
            assert_eq!(part.len(), level.graph.0);
            self.log(Call::Project(level.graph.0, finer.0));
            level.cmap.iter().map(|&c| part[c as usize]).collect()
        }

        fn finish(&mut self, finest: &Fake, part: &mut [u32]) {
            assert_eq!(part.len(), finest.0);
            self.log(Call::Finish(finest.0));
        }
    }

    /// Runs the whole order on a graph of `n` vertices; returns the call
    /// log and the level count.
    fn run(check: CheckLevel, stall_at: usize, n: usize, target: usize) -> (Vec<Call>, usize) {
        let mut policy = Recorder {
            check,
            stall_at,
            calls: RefCell::new(Vec::new()),
        };
        let levels = coarsen(&mut policy, &Fake(n), target);
        let part = uncoarsen(&mut policy, &Fake(n), &levels);
        assert_eq!(part.len(), n);
        (policy.calls.into_inner(), levels.len())
    }

    #[test]
    fn builds_until_the_target_then_walks_finest_ward() {
        use Call::*;
        // 100 → 50 → 25 → 13: the input of level 3 is at the target.
        let (calls, nlevels) = run(CheckLevel::Off, usize::MAX, 100, 13);
        assert_eq!(nlevels, 3);
        assert_eq!(
            calls,
            vec![
                Coarsen(0, 100),
                Coarsen(1, 50),
                Coarsen(2, 25),
                Initial(13),
                Refine(3, true, 13),
                Project(13, 25),
                Refine(2, false, 25),
                Project(25, 50),
                Refine(1, false, 50),
                Project(50, 100),
                Refine(0, false, 100),
                Finish(100),
            ]
        );
    }

    #[test]
    fn a_stalled_matching_ends_coarsening() {
        use Call::*;
        let (calls, nlevels) = run(CheckLevel::Off, 1, 100, 2);
        assert_eq!(nlevels, 1);
        assert_eq!(
            calls,
            vec![
                Coarsen(0, 100),
                Coarsen(1, 50),
                Initial(50),
                Refine(1, true, 50),
                Project(50, 100),
                Refine(0, false, 100),
                Finish(100),
            ]
        );
    }

    #[test]
    fn coarsening_stops_at_the_level_cap() {
        // A one-vertex graph stays one vertex and never reaches a zero
        // target or stalls: only the cap stops the loop.
        let (calls, nlevels) = run(CheckLevel::Off, usize::MAX, 1, 0);
        assert_eq!(nlevels, MAX_LEVELS);
        let coarsened = calls
            .iter()
            .filter(|c| matches!(c, Call::Coarsen(..)))
            .count();
        assert_eq!(coarsened, MAX_LEVELS);
        let refined = calls
            .iter()
            .filter(|c| matches!(c, Call::Refine(..)))
            .count();
        assert_eq!(refined, MAX_LEVELS + 1);
        assert_eq!(calls.last(), Some(&Call::Finish(1)));
    }

    #[test]
    fn a_graph_at_the_target_has_no_levels() {
        use Call::*;
        let (calls, nlevels) = run(CheckLevel::Off, usize::MAX, 10, 10);
        assert_eq!(nlevels, 0);
        assert_eq!(calls, vec![Initial(10), Refine(0, true, 10), Finish(10)]);
    }

    #[test]
    fn seams_are_checked_only_when_enabled() {
        use Call::*;
        let (calls, _) = run(CheckLevel::Off, usize::MAX, 8, 2);
        assert!(!calls
            .iter()
            .any(|c| matches!(c, LevelChecked(_) | PartChecked(..))));

        let (calls, _) = run(CheckLevel::Cheap, usize::MAX, 8, 2);
        assert_eq!(
            calls,
            vec![
                Coarsen(0, 8),
                LevelChecked(4),
                Coarsen(1, 4),
                LevelChecked(2),
                Initial(2),
                PartChecked(Seam::Initial, 2),
                Refine(2, true, 2),
                PartChecked(Seam::Refined, 2),
                Project(2, 4),
                PartChecked(Seam::Projected, 4),
                Refine(1, false, 4),
                PartChecked(Seam::Refined, 4),
                Project(4, 8),
                PartChecked(Seam::Projected, 8),
                Refine(0, false, 8),
                PartChecked(Seam::Refined, 8),
                Finish(8),
                PartChecked(Seam::Finished, 8),
            ]
        );
    }
}

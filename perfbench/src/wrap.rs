//! Timing wrappers around the trait objects the planners already accept.
//!
//! Each wrapper forwards every trait method, default methods included,
//! to the wrapped object, and records a [`crate::trace`] span around the
//! ones that do work. The traced run plans through these wrappers; the
//! untraced run uses the bare objects, and the benchmark checks that
//! both produce bit-identical plans, costs and latencies.

use crate::trace;
use balsa_card::CardEstimator;
use balsa_cost::{
    CostModel, JoinCandidate, OrderSource, PairCoster, PlanScorer, QueryScorer, ScoredTree,
    SubtreeCost,
};
use balsa_learn::{
    FeatureEncoding, FitReport, JoinStateItem, ModelState, SgdConfig, TrainSet, ValueModel,
};
use balsa_query::{JoinOp, Plan, Query, TableMask};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub const SCORER: &str = "learn.scorer";
pub const MODEL: &str = "learn.model";

/// Candidates scored through [`TimedScorer`] sessions (scans and joins).
pub static SCORED_CANDIDATES: AtomicU64 = AtomicU64::new(0);

/// A [`CardEstimator`] whose calls are `card.histogram` leaf calls.
pub struct TimedCard<'a>(pub &'a dyn CardEstimator);

impl CardEstimator for TimedCard<'_> {
    fn cardinality(&self, query: &Query, mask: TableMask) -> f64 {
        let _s = trace::leaf(trace::CARD);
        self.0.cardinality(query, mask)
    }

    fn selectivity(&self, query: &Query, qt: usize) -> f64 {
        let _s = trace::leaf(trace::CARD);
        self.0.selectivity(query, qt)
    }

    fn base_rows(&self, query: &Query, qt: usize) -> f64 {
        let _s = trace::leaf(trace::CARD);
        self.0.base_rows(query, qt)
    }
}

/// A [`CostModel`] whose costing calls, and the sessions it opens, are
/// `cost.expert` leaf calls.
pub struct TimedCost<'a>(pub &'a dyn CostModel);

impl CostModel for TimedCost<'_> {
    fn plan_cost(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> f64 {
        let _s = trace::leaf(trace::COST);
        self.0.plan_cost(query, plan, est)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn scan_summary(&self, query: &Query, scan: &Plan, est: &dyn CardEstimator) -> SubtreeCost {
        let _s = trace::leaf(trace::COST);
        self.0.scan_summary(query, scan, est)
    }

    fn join_summary(
        &self,
        query: &Query,
        join: &Plan,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        est: &dyn CardEstimator,
    ) -> SubtreeCost {
        let _s = trace::leaf(trace::COST);
        self.0.join_summary(query, join, lc, rc, est)
    }

    // Mirrors the trait's own signature.
    #[allow(clippy::too_many_arguments)]
    fn join_summary_parts(
        &self,
        query: &Query,
        op: JoinOp,
        left: &Arc<Plan>,
        lc: &SubtreeCost,
        right: &Arc<Plan>,
        rc: &SubtreeCost,
        est: &dyn CardEstimator,
    ) -> SubtreeCost {
        let _s = trace::leaf(trace::COST);
        self.0
            .join_summary_parts(query, op, left, lc, right, rc, est)
    }

    fn pair_coster<'c>(
        &'c self,
        query: &Query,
        lmask: TableMask,
        rmask: TableMask,
        est: &dyn CardEstimator,
    ) -> Option<Box<dyn PairCoster + 'c>> {
        let _s = trace::leaf(trace::COST);
        let inner = self.0.pair_coster(query, lmask, rmask, est)?;
        Some(Box::new(TimedPairCoster(inner)))
    }
}

/// A [`PairCoster`] session whose `work_out` calls are `cost.expert`
/// leaf calls.
pub struct TimedPairCoster<'c>(Box<dyn PairCoster + 'c>);

impl PairCoster for TimedPairCoster<'_> {
    fn work_out(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        right_index_scan: bool,
    ) -> (f64, f64) {
        let _s = trace::leaf(trace::COST);
        self.0.work_out(op, lc, rc, right_index_scan)
    }

    fn child_monotone(&self) -> bool {
        self.0.child_monotone()
    }

    fn order_source(&self, op: JoinOp) -> OrderSource {
        self.0.order_source(op)
    }

    fn pair_sorted_on(&self) -> &[(usize, usize)] {
        self.0.pair_sorted_on()
    }
}

/// A [`PlanScorer`] whose sessions' scoring calls are `learn.scorer`
/// spans.
pub struct TimedScorer<'a>(pub &'a dyn PlanScorer);

impl PlanScorer for TimedScorer<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn for_query<'q>(&'q self, query: &'q Query) -> Box<dyn QueryScorer + 'q> {
        let _s = trace::span(SCORER);
        Box::new(TimedQueryScorer(self.0.for_query(query)))
    }
}

struct TimedQueryScorer<'q>(Box<dyn QueryScorer + 'q>);

impl QueryScorer for TimedQueryScorer<'_> {
    fn score_scan(&self, scan: &Plan) -> ScoredTree {
        let _s = trace::span(SCORER);
        SCORED_CANDIDATES.fetch_add(1, Ordering::Relaxed);
        self.0.score_scan(scan)
    }

    fn score_join(&self, join: &Plan, lc: &ScoredTree, rc: &ScoredTree) -> ScoredTree {
        let _s = trace::span(SCORER);
        SCORED_CANDIDATES.fetch_add(1, Ordering::Relaxed);
        self.0.score_join(join, lc, rc)
    }

    fn score_join_batch(&self, cands: &[JoinCandidate<'_>], out: &mut Vec<ScoredTree>) {
        let _s = trace::span(SCORER);
        SCORED_CANDIDATES.fetch_add(cands.len() as u64, Ordering::Relaxed);
        self.0.score_join_batch(cands, out)
    }
}

/// A [`ValueModel`] whose inference and fitting calls are `learn.model`
/// spans.
pub struct TimedModel<'a>(pub &'a dyn ValueModel);

impl ValueModel for TimedModel<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn encoding(&self) -> FeatureEncoding {
        self.0.encoding()
    }

    fn is_fitted(&self) -> bool {
        self.0.is_fitted()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let _s = trace::span(MODEL);
        self.0.predict(x)
    }

    fn fit(
        &mut self,
        _data: TrainSet,
        _cfg: &SgdConfig,
        _rng: &mut rand::rngs::SmallRng,
    ) -> FitReport {
        unreachable!("the benchmark serves a borrowed model and never fits through the wrapper")
    }

    fn params(&self) -> Vec<f64> {
        self.0.params()
    }

    fn state_vec(&self) -> Vec<f64> {
        self.0.state_vec()
    }

    fn load_state(&mut self, _state: &[f64]) -> Result<(), String> {
        Err("the benchmark's timing wrapper borrows its model read-only".into())
    }

    fn clone_box(&self) -> Box<dyn ValueModel> {
        self.0.clone_box()
    }

    fn leaf_state(&self, node_x: &[f64]) -> Option<ModelState> {
        let _s = trace::span(MODEL);
        self.0.leaf_state(node_x)
    }

    fn join_state(
        &self,
        node_x: &[f64],
        left: &ModelState,
        right: &ModelState,
    ) -> Option<ModelState> {
        let _s = trace::span(MODEL);
        self.0.join_state(node_x, left, right)
    }

    fn state_value(&self, state: &ModelState) -> Option<f64> {
        let _s = trace::span(MODEL);
        self.0.state_value(state)
    }

    fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        let _s = trace::span(MODEL);
        self.0.predict_batch(xs)
    }

    fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
        let _s = trace::span(MODEL);
        self.0.join_state_batch(items)
    }

    fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
        let _s = trace::span(MODEL);
        self.0.state_value_batch(states)
    }
}

//! The plan-serving client shared by both workloads: one closed-loop
//! client plans each query of a stream with the learned beam and with
//! the expert DP, checks both plans, and executes both.

use crate::trace;
use balsa_card::CardEstimator;
use balsa_cost::{CostModel, ExpertCostModel};
use balsa_engine::ExecutionEnv;
use balsa_query::{verify_plan, Query};
use balsa_search::{PlannedQuery, Planner};
use std::time::Instant;

/// Relative slack of the DP-optimality oracle.
const ORACLE_REL_TOL: f64 = 1e-9;

/// What one served query produced. Equal records mean bit-identical
/// plans, costs and executed latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub learned_hash: u64,
    pub learned_cost: u64,
    pub expert_hash: u64,
    pub expert_cost: u64,
    pub learned_latency: u64,
    pub expert_latency: u64,
}

impl Record {
    pub fn learned_latency_secs(&self) -> f64 {
        f64::from_bits(self.learned_latency)
    }

    pub fn expert_latency_secs(&self) -> f64 {
        f64::from_bits(self.expert_latency)
    }
}

/// One pass over the stream.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per stream position; `None` where a check failed.
    pub records: Vec<Option<Record>>,
    pub learned_ms: Vec<f64>,
    pub expert_ms: Vec<f64>,
    pub failures: Vec<String>,
    pub wall_secs: f64,
    /// Summed walls of the plan executions.
    pub exec_secs: f64,
    pub executions: usize,
    pub beam_states: usize,
    pub beam_candidates: usize,
    pub dp_pairs: usize,
    pub dp_cost_calls: usize,
}

/// The serving side of one workload: the stream, the warm engine, and
/// the independent cost oracle the checks use.
pub struct Client<'a> {
    pub queries: &'a [Query],
    pub env: &'a ExecutionEnv,
    pub oracle: &'a ExpertCostModel,
    pub oracle_est: &'a dyn CardEstimator,
}

impl Client<'_> {
    /// Serves every query of the stream once.
    pub fn pass(&self, learned: &dyn Planner, expert: &dyn Planner) -> Pass {
        let mut out = Pass::default();
        let t0 = Instant::now();
        for (pos, q) in self.queries.iter().enumerate() {
            trace::set_query(pos as u32);
            let _root = trace::span("client.query");
            let rec = self.serve(q, learned, expert, &mut out);
            if let Err(e) = &rec {
                out.failures.push(format!("{}: {e}", q.name));
            }
            out.records.push(rec.ok());
        }
        trace::set_query(trace::NONE);
        out.wall_secs = t0.elapsed().as_secs_f64();
        out
    }

    fn plan_timed(
        planner: &dyn Planner,
        q: &Query,
        span: &'static str,
    ) -> Result<(PlannedQuery, f64), String> {
        let _s = trace::ambient(span);
        let t = Instant::now();
        let p = planner.try_plan(q);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        p.map(|p| (p, ms))
            .map_err(|e| format!("{}: {e}", planner.name()))
    }

    fn execute(&self, q: &Query, p: &PlannedQuery, out: &mut Pass) -> Result<f64, String> {
        self.env
            .validate(q, &p.plan)
            .map_err(|e| format!("engine rejected plan: {e}"))?;
        let _s = trace::span("engine.execute");
        let t = Instant::now();
        let r = self.env.execute_uncharged(q, &p.plan, None);
        out.exec_secs += t.elapsed().as_secs_f64();
        out.executions += 1;
        r.map(|o| o.latency_secs)
            .map_err(|e| format!("execution failed: {e}"))
    }

    fn serve(
        &self,
        q: &Query,
        learned: &dyn Planner,
        expert: &dyn Planner,
        out: &mut Pass,
    ) -> Result<Record, String> {
        let (lp, lms) = Self::plan_timed(learned, q, "search.beam")?;
        let (ep, ems) = Self::plan_timed(expert, q, "search.dp")?;
        out.learned_ms.push(lms);
        out.expert_ms.push(ems);
        out.beam_states += lp.stats.states;
        out.beam_candidates += lp.stats.candidates;
        out.dp_pairs += ep.stats.pairs;
        out.dp_cost_calls += ep.stats.cost_calls;
        {
            let _s = trace::span("query.verify");
            verify_plan(q, &lp.plan, None).map_err(|e| format!("learned plan: {e}"))?;
            verify_plan(q, &ep.plan, Some(ep.cost)).map_err(|e| format!("expert plan: {e}"))?;
        }
        let l_lat = self.execute(q, &lp, out)?;
        let e_lat = self.execute(q, &ep, out)?;
        let l_cost = self.oracle.plan_cost(q, &lp.plan, self.oracle_est);
        let e_cost = self.oracle.plan_cost(q, &ep.plan, self.oracle_est);
        if l_cost < e_cost * (1.0 - ORACLE_REL_TOL) {
            return Err(format!(
                "learned plan's expert cost {l_cost} beats the DP optimum {e_cost}"
            ));
        }
        Ok(Record {
            learned_hash: lp.plan.canonical_hash(),
            learned_cost: lp.cost.to_bits(),
            expert_hash: ep.plan.canonical_hash(),
            expert_cost: ep.cost.to_bits(),
            learned_latency: l_lat.to_bits(),
            expert_latency: e_lat.to_bits(),
        })
    }
}

/// Compares a pass against the reference pass, query by query; returns
/// one message per mismatch (a failed check of that query).
pub fn mismatches(
    reference: &[Option<Record>],
    pass: &Pass,
    queries: &[Query],
    what: &str,
) -> Vec<String> {
    reference
        .iter()
        .zip(&pass.records)
        .zip(queries)
        .filter_map(|((r, p), q)| match (r, p) {
            (Some(r), Some(p)) if r != p => Some(format!(
                "{}: {what} differs from the reference pass ({r:?} vs {p:?})",
                q.name
            )),
            _ => None,
        })
        .collect()
}

//! The independent checker: every output the program returns is judged
//! against the naive [`Reference`].
//!
//! A contract that must hold on every call (exact answers, samples in
//! the support, valid witnesses, served equal to in-process) fails its
//! operation. A statistical contract (an estimate within ε or κ, a
//! heavy-hitter sandwich, a sampler that may give up) only misses on
//! one call; the run fails when a protocol's miss rate exceeds the δ
//! of `EstimateRequest::guarantee()` plus a binomial margin.

use crate::reference::{entry_pow, Reference};
use mpest_core::guarantee::GuaranteeKind;
use mpest_core::{AnyOutput, EstimateReport, EstimateRequest, MatrixSample};
use mpest_matrix::PNorm;
use std::collections::BTreeMap;

/// The checker's judgement of one output.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Pass,
    /// A statistical contract missed on this call (budgeted by δ).
    Miss(String),
    /// A contract that must always hold was broken.
    Fail(String),
}

fn p_of(p: PNorm) -> f64 {
    match p {
        PNorm::Zero => 0.0,
        PNorm::P(p) => p,
        PNorm::Inf => f64::INFINITY,
    }
}

/// Sorted `must ⊆ got ⊆ may` as a verdict.
fn sandwich(got: &[(u32, u32)], must: &[(u32, u32)], may: &[(u32, u32)]) -> Verdict {
    let missing = must
        .iter()
        .filter(|pos| got.binary_search(pos).is_err())
        .count();
    let outside = got
        .iter()
        .filter(|pos| may.binary_search(pos).is_err())
        .count();
    if missing == 0 && outside == 0 {
        Verdict::Pass
    } else {
        Verdict::Miss(format!(
            "{missing} mandatory pair(s) missing, {outside} reported pair(s) below the band"
        ))
    }
}

/// Judges `output` of `request` against `r`.
pub fn check(request: &EstimateRequest, output: &AnyOutput, r: &Reference) -> Verdict {
    let spec = request.guarantee();
    match (spec.kind, output) {
        (GuaranteeKind::Exact, AnyOutput::Count(v)) => {
            if *v == r.l1() {
                Verdict::Pass
            } else {
                Verdict::Fail(format!("exact count {v}, reference {}", r.l1()))
            }
        }
        (GuaranteeKind::Exact, AnyOutput::Exact(stats)) => {
            let (max, (i, j)) = stats.linf;
            let ok = stats.l0 == r.lp_pow(0.0)
                && stats.l1 == r.lp_pow(1.0)
                && stats.l2_sq == r.lp_pow(2.0)
                && max == r.linf()
                && r.in_range(i, j)
                && r.c(i, j).abs() == max;
            if ok {
                Verdict::Pass
            } else {
                Verdict::Fail(format!(
                    "exact statistics {stats:?} disagree with the reference"
                ))
            }
        }
        (GuaranteeKind::ExactShares, AnyOutput::Shares(shares)) => {
            let mut sum: BTreeMap<(u32, u32), i64> = BTreeMap::new();
            for &(i, j, v) in shares.alice.iter().chain(&shares.bob) {
                if !r.in_range(i, j) {
                    return Verdict::Fail(format!("share entry ({i}, {j}) out of range"));
                }
                *sum.entry((i, j)).or_default() += v;
            }
            let bad = r
                .entries()
                .filter(|&(i, j, v)| sum.get(&(i, j)).copied().unwrap_or(0) != v)
                .count();
            if bad == 0 {
                Verdict::Pass
            } else {
                Verdict::Fail(format!("shares differ from A·B at {bad} position(s)"))
            }
        }
        (GuaranteeKind::L1Sample, AnyOutput::L1Sample(sample)) => match sample {
            Some(s) => {
                let valid = r.in_range(s.row, s.col)
                    && (s.witness as usize) < r.inner
                    && r.a(s.row, s.witness) != 0
                    && r.b(s.witness, s.col) != 0;
                if valid {
                    Verdict::Pass
                } else {
                    Verdict::Fail(format!(
                        "({}, {}) via witness {} is not a join result",
                        s.row, s.col, s.witness
                    ))
                }
            }
            None if r.l1() == 0 => Verdict::Pass,
            None => Verdict::Fail("no ℓ1-sample from a nonzero product".into()),
        },
        (GuaranteeKind::SupportSample { .. }, AnyOutput::Sample(sample)) => match *sample {
            MatrixSample::Sampled { row, col, value } => {
                if r.in_range(row, col) && value != 0 && r.c(row, col) == value {
                    Verdict::Pass
                } else {
                    Verdict::Fail(format!(
                        "sample ({row}, {col}) = {value} is not in the support"
                    ))
                }
            }
            MatrixSample::ZeroMatrix if r.lp_pow(0.0) == 0.0 => Verdict::Pass,
            MatrixSample::ZeroMatrix => {
                Verdict::Fail("zero matrix claimed for a nonzero product".into())
            }
            MatrixSample::Failed => Verdict::Miss("sampler gave up".into()),
        },
        (GuaranteeKind::RelativeError { eps }, AnyOutput::Scalar(est)) => {
            let p = match *request {
                EstimateRequest::LpNorm { p, .. } | EstimateRequest::LpBaseline { p, .. } => {
                    p_of(p)
                }
                _ => return Verdict::Fail(format!("no reference for {}", request.name())),
            };
            let truth = r.lp_pow(p);
            if !est.is_finite() {
                Verdict::Fail(format!("estimate {est} is not finite"))
            } else if (est - truth).abs() <= eps * truth {
                Verdict::Pass
            } else {
                Verdict::Miss(format!("estimate {est:.1} outside (1 ± {eps}) · {truth}"))
            }
        }
        (
            GuaranteeKind::ApproxFactor { under, over },
            AnyOutput::Scalar(_) | AnyOutput::Linf(_),
        ) => {
            let est = output.as_scalar().unwrap_or(f64::NAN);
            let truth = r.linf() as f64;
            if !est.is_finite() {
                Verdict::Fail(format!("estimate {est} is not finite"))
            } else if est >= truth / under && est <= over * truth {
                Verdict::Pass
            } else {
                Verdict::Miss(format!(
                    "estimate {est} outside [{truth}/{under}, {over}·{truth}]"
                ))
            }
        }
        (GuaranteeKind::HeavyHitters { p, phi, eps }, AnyOutput::HeavyHitters(hh)) => {
            let got = hh.positions();
            sandwich(&got, &r.heavy(p, phi), &r.heavy(p, phi - eps))
        }
        (GuaranteeKind::OverlapJoin { t, slack }, AnyOutput::HeavyHitters(hh)) => {
            let got = hh.positions();
            let t = f64::from(t);
            sandwich(&got, &r.at_least(t), &r.at_least(t * (1.0 - slack)))
        }
        (kind, _) => Verdict::Fail(format!(
            "{} returned an output of the wrong shape for {kind:?}",
            request.name()
        )),
    }
}

/// Per-protocol counts of one run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub missed: u64,
}

/// Everything the checker saw in one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub by_op: BTreeMap<String, Counts>,
    /// δ per protocol name, from `EstimateRequest::guarantee()`.
    delta: BTreeMap<String, f64>,
    /// The first few failure and miss notes, for the run report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation's verdict under `op`.
    pub fn record(&mut self, op: &str, delta: f64, verdict: Verdict) {
        let counts = self.by_op.entry(op.to_string()).or_default();
        counts.attempted += 1;
        self.delta.insert(op.to_string(), delta);
        let note = match verdict {
            Verdict::Pass => return,
            Verdict::Miss(note) => {
                counts.missed += 1;
                format!("miss {op}: {note}")
            }
            Verdict::Fail(note) => {
                counts.failed += 1;
                format!("FAIL {op}: {note}")
            }
        };
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    /// Checks one report of `request` against the reference and, when
    /// given, against the in-process fused report for the same seed.
    pub fn report(
        &mut self,
        request: &EstimateRequest,
        got: &EstimateReport,
        fused: Option<&EstimateReport>,
        r: &Reference,
    ) {
        let verdict = match fused {
            Some(fused) if fused != got => {
                Verdict::Fail("report differs from the in-process fused report".into())
            }
            _ if got.protocol != request.name() => {
                Verdict::Fail(format!("report names protocol {}", got.protocol))
            }
            _ => check(request, &got.output, r),
        };
        self.record(request.name(), request.guarantee().delta, verdict);
    }

    /// Records an operation that returned an error.
    pub fn error(&mut self, op: &str, err: &dyn std::fmt::Display) {
        self.record(op, 0.0, Verdict::Fail(err.to_string()));
    }

    /// Folds another run's counts into this one.
    pub fn absorb(&mut self, other: Tally) {
        for (op, c) in other.by_op {
            let mine = self.by_op.entry(op).or_default();
            mine.attempted += c.attempted;
            mine.failed += c.failed;
            mine.missed += c.missed;
        }
        self.delta.extend(other.delta);
        self.notes.extend(other.notes);
        self.notes.truncate(16);
    }

    pub fn attempted(&self) -> u64 {
        self.by_op.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.by_op.values().map(|c| c.failed).sum()
    }

    /// Protocols whose miss rate exceeds `δ + 3·σ + 1/n` over `n`
    /// attempts (σ the binomial standard deviation at δ).
    pub fn over_budget(&self) -> Vec<String> {
        self.by_op
            .iter()
            .filter(|(op, c)| {
                let n = c.attempted.max(1) as f64;
                let delta = self.delta.get(*op).copied().unwrap_or(0.0);
                let allowed = delta + 3.0 * (delta * (1.0 - delta) / n).sqrt() + 1.0 / n;
                c.missed as f64 / n > allowed
            })
            .map(|(op, c)| format!("{op}: {} of {} missed", c.missed, c.attempted))
            .collect()
    }
}

/// Feeds deliberately corrupted outputs to the checker and returns
/// `(cases, rejected)`: every case must come back as a miss or a
/// failure, and an honest control must pass.
pub fn self_test(r: &Reference, planted: &[(u32, u32)]) -> (usize, usize, Vec<String>) {
    use mpest_core::{HeavyHitters, HhPair, L1Sample, ProductShares};
    let mut cases: Vec<(&str, EstimateRequest, AnyOutput)> = Vec::new();
    cases.push((
        "exact-l1 off by one",
        EstimateRequest::ExactL1,
        AnyOutput::Count(r.l1() + 1),
    ));
    if let Some((i, j, _)) = r.entries().find(|&(_, _, v)| v == 0) {
        cases.push((
            "l0-sample outside the support",
            EstimateRequest::L0Sample { eps: 0.3 },
            AnyOutput::Sample(MatrixSample::Sampled {
                row: i,
                col: j,
                value: 1,
            }),
        ));
    }
    if let Some((i, j, v)) = r.entries().find(|&(_, _, v)| v != 0) {
        cases.push((
            "l0-sample with a wrong value",
            EstimateRequest::L0Sample { eps: 0.3 },
            AnyOutput::Sample(MatrixSample::Sampled {
                row: i,
                col: j,
                value: v + 1,
            }),
        ));
    }
    if let Some((t, j)) = (0..r.inner as u32)
        .flat_map(|t| (0..r.cols as u32).map(move |j| (t, j)))
        .find(|&(t, j)| r.b(t, j) != 0)
    {
        if let Some(i) = (0..r.rows as u32).find(|&i| r.a(i, t) == 0) {
            cases.push((
                "l1-sample with a false witness",
                EstimateRequest::L1Sample,
                AnyOutput::L1Sample(Some(L1Sample {
                    row: i,
                    col: j,
                    witness: t,
                })),
            ));
        }
    }
    let mut alice: Vec<(u32, u32, i64)> = r.entries().filter(|e| e.2 != 0).collect();
    if let Some(first) = alice.first_mut() {
        first.2 += 1;
    }
    cases.push((
        "sparse-matmul shares off by one",
        EstimateRequest::SparseMatmul,
        AnyOutput::Shares(ProductShares {
            alice,
            bob: Vec::new(),
        }),
    ));
    // Heavy hitters with p = 2 and φ just under the largest planted
    // pair's share, so the planted pair is mandatory; the corrupted set
    // holds the whole tolerance band except that pair.
    let total = r.lp_pow(2.0);
    if let Some(&(pi, pj)) = planted.iter().max_by_key(|&&(i, j)| r.c(i, j)) {
        let phi = 0.9 * entry_pow(r.c(pi, pj), 2.0) / total;
        let request = EstimateRequest::HhBinary {
            p: 2.0,
            phi,
            eps: phi / 2.0,
        };
        let pairs = r
            .heavy(2.0, phi / 2.0)
            .into_iter()
            .filter(|&pos| pos != (pi, pj))
            .map(|(row, col)| HhPair {
                row,
                col,
                estimate: 0.0,
            })
            .collect();
        cases.push((
            "hh-binary missing a planted pair",
            request,
            AnyOutput::HeavyHitters(HeavyHitters { pairs }),
        ));
    }
    let truth = r.lp_pow(0.0);
    cases.push((
        "lp estimate outside (1 ± ε)",
        EstimateRequest::LpNorm {
            p: PNorm::Zero,
            eps: 0.3,
        },
        AnyOutput::Scalar(truth * 1.5),
    ));
    cases.push((
        "linf estimate outside its factor",
        EstimateRequest::LinfGeneral { kappa: 4 },
        AnyOutput::Scalar(r.linf() as f64 * 20.0),
    ));
    let mut missed = Vec::new();
    let mut rejected = 0;
    for (name, request, output) in &cases {
        if check(request, output, r) == Verdict::Pass {
            missed.push((*name).to_string());
        } else {
            rejected += 1;
        }
    }
    // Controls: the true answers pass, and a run that misses every call
    // of a statistical protocol is over budget.
    if check(&EstimateRequest::ExactL1, &AnyOutput::Count(r.l1()), r) != Verdict::Pass {
        missed.push("control: the exact answer was rejected".into());
    }
    let mut tally = Tally::default();
    for _ in 0..50 {
        tally.record("lp", 0.4, Verdict::Miss("corrupted".into()));
    }
    if tally.over_budget().is_empty() {
        missed.push("a run of 50 misses stayed within the δ budget".into());
    }
    (cases.len(), rejected, missed)
}

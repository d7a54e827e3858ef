//! `refine_session`: the analyst's loop. One engine is kept for a whole
//! session — a cold mine, then rounds of {rerun with another threshold
//! pair; look at the output table; two single-row `INSERT`s and one
//! basket `DELETE`; rerun the same statement over the changed table}.
//! One operation is one round. The same layers as the cold workloads,
//! used differently: warm instead of cold, writes beside reads.

use std::time::Instant;

use datagen::rng::Rng;
use minerule::postprocess::DecodedRule;
use minerule::telemetry::MetricsSnapshot;
use minerule::MineRuleEngine;
use relational::{ExecStats, Value};

use crate::cold::Pinned;
use crate::data::{self, Dataset, Fingerprint};
use crate::host::{Probe, MEMORY_EXPONENT};
use crate::run::{ms, ratio, spanned, Budget, Outcome, RunConfig};
use crate::stats;
use crate::trace::Recorder;

/// Thresholds of the cold mine that opens a session, in thousandths.
const COLD_SUPPORT_MILLI: u32 = 20;
const COLD_CONFIDENCE_MILLI: u32 = 300;

const PINNED: Pinned = Pinned {
    dataset: (75_215, 0x6a9f_f296_57a9_11fd),
    rules: (754, 0x9b56_4df1_3dec_abb1),
};

/// One scripted round.
#[derive(Debug, Clone)]
struct Round {
    /// The rerun that opens the round.
    statement: String,
    /// Loosened reruns ask for more than the engine has cached and mine
    /// cold; all others tighten support and/or change only confidence.
    loosened: bool,
    inserts: [String; 2],
    delete: String,
}

fn statement(support_milli: u32, confidence_milli: u32) -> String {
    data::simple_statement(
        f64::from(support_milli) / 1000.0,
        f64::from(confidence_milli) / 1000.0,
    )
}

/// The seed's script: threshold schedule and DML keys. One round in ten
/// (at least one) loosens support below everything mined so far; the
/// others tighten it by 0–2 ‰ and draw a confidence from a grid.
fn script(dataset: &Dataset, rounds: usize, seed: u64) -> Vec<Round> {
    let Dataset::Quest(quest) = dataset else {
        unreachable!("the session workload mines Quest baskets")
    };
    // Offset so the script does not replay the dataset permutation's draws.
    let mut rng = Rng::seed_from_u64(seed ^ 0x5e55_1011);
    let mut loosened = vec![false; rounds];
    let mut wanted = (rounds / 10).max(1);
    while wanted > 0 && rounds > 1 {
        let at = 1 + rng.gen_below(rounds as u64 - 1) as usize;
        if !loosened[at] {
            loosened[at] = true;
            wanted -= 1;
        }
    }
    let mut victims: Vec<usize> = (1..=quest.transactions.len()).collect();
    for i in 0..rounds.min(victims.len()) {
        let j = i + rng.gen_below((victims.len() - i) as u64) as usize;
        victims.swap(i, j);
    }
    // The engine serves a rerun from its cache when support is no lower
    // than in the statement it last mined or served, so "tightened" is
    // relative to the previous rerun, and a loosened rerun has to go
    // below everything mined so far.
    let mut floor = COLD_SUPPORT_MILLI;
    let mut support = COLD_SUPPORT_MILLI;
    (0..rounds)
        .map(|r| {
            if loosened[r] {
                floor -= 2;
                support = floor;
            } else {
                support += rng.gen_below(3) as u32; // +0: confidence only
            }
            let confidence = COLD_CONFIDENCE_MILLI + 50 * rng.gen_below(5) as u32;
            let basket = 1_000_000 + r;
            let item = |rng: &mut Rng| rng.gen_below(u64::from(quest.config.items));
            Round {
                statement: statement(support, confidence),
                loosened: loosened[r],
                inserts: [
                    format!(
                        "INSERT INTO Baskets VALUES ({basket}, 'i{:05}')",
                        item(&mut rng)
                    ),
                    format!(
                        "INSERT INTO Baskets VALUES ({basket}, 'i{:05}')",
                        item(&mut rng)
                    ),
                ],
                delete: format!(
                    "DELETE FROM Baskets WHERE tr = {}",
                    victims[r % victims.len()]
                ),
            }
        })
        .collect()
}

#[derive(Default)]
struct Samples {
    cold: Vec<f64>,
    round: Vec<f64>,
    /// `round` at quiet-host speed: what `op_ms` is the median of.
    op: Vec<f64>,
    session: Vec<f64>,
    refine: Vec<f64>,
    delta: Vec<f64>,
    insert: Vec<f64>,
    delete: Vec<f64>,
    /// Engine preprocess phase of the tightened reruns (a cache restore).
    refine_preprocess: Vec<f64>,
    /// Engine preprocess phase of the post-DML reruns.
    delta_preprocess: Vec<f64>,
}

/// Counters of exactly one complete session.
struct SessionCounters {
    snapshot: MetricsSnapshot,
    before: ExecStats,
    after: ExecStats,
}

/// What [`run_sessions`] hands back.
struct Sessions {
    samples: Samples,
    /// Counters of the first session.
    counters: Option<SessionCounters>,
    /// Rule-shape fingerprint of the first session's opening cold mine.
    cold_shape: Option<Fingerprint>,
    /// `(round, rules of its rerun after the DML)` for the rounds asked for.
    kept: Vec<(usize, Vec<DecodedRule>)>,
}

/// Run sessions until the budget is used up; the first one always runs
/// to completion (its counters are the deterministic ones, and its rules
/// at the `keep` rounds are handed back for verification).
fn run_sessions(
    dataset: &Dataset,
    plan: &[Round],
    budget: &mut Budget,
    probe: &mut Probe,
    out: &mut Outcome,
    mut rec: Option<&mut Recorder>,
    keep: &[usize],
) -> Sessions {
    let mut samples = Samples::default();
    let mut counters = None;
    let mut cold_shape = None;
    let mut kept = Vec::new();
    let cold_statement = statement(COLD_SUPPORT_MILLI, COLD_CONFIDENCE_MILLI);
    let mut first = true;
    'sessions: loop {
        let mut db = dataset.fresh_db();
        let engine = MineRuleEngine::new();
        let before = db.stats();
        let session_start = Instant::now();
        let probing_before = probe.spent_ms();
        if let Some(r) = rec.as_mut() {
            r.next_op();
        }
        let session_span = rec.as_mut().map(|r| r.open("session"));
        let (result, cold_ms) = spanned(&mut rec, "mine.cold", || {
            engine.execute(&mut db, &cold_statement)
        });
        let Some(cold) = out.attempt("cold mine", result) else {
            break;
        };
        samples.cold.push(cold_ms);
        if first {
            cold_shape = Some(data::rule_shape_fingerprint(&cold.rules));
        }

        for (r, round) in plan.iter().enumerate() {
            if !first && !budget.more() {
                break 'sessions;
            }
            let round_start = Instant::now();
            let round_span = rec.as_mut().map(|rec| rec.open("round"));

            let name = if round.loosened {
                "mine.loosened"
            } else {
                "mine.refine"
            };
            let (result, rerun_ms) =
                spanned(&mut rec, name, || engine.execute(&mut db, &round.statement));
            let Some(mined) = out.attempt("threshold rerun", result) else {
                break 'sessions;
            };
            if !round.loosened {
                samples.refine.push(rerun_ms);
                samples.refine_preprocess.push(ms(mined.timings.preprocess));
            }

            // The analyst looks at the result — rules are ordinary rows.
            let (result, _) = spanned(&mut rec, "sql.select", || {
                db.query("SELECT COUNT(*) FROM BenchRules WHERE CONFIDENCE >= 0.5")
            });
            if let Some(rs) = out.attempt("select over the output table", result) {
                let confident = mined.rules.iter().filter(|r| r.confidence >= 0.5).count();
                out.check(rs.scalar() == Some(&Value::Int(confident as i64)), || {
                    format!(
                        "output table holds {:?} confident rules, outcome {confident}",
                        rs.scalar()
                    )
                });
            }

            for insert in &round.inserts {
                let (result, insert_ms) = spanned(&mut rec, "dml.insert", || db.execute(insert));
                if out.attempt("insert", result).is_some() {
                    samples.insert.push(insert_ms);
                }
            }
            let (result, delete_ms) = spanned(&mut rec, "dml.delete", || db.execute(&round.delete));
            if out.attempt("delete", result).is_some() {
                samples.delete.push(delete_ms);
            }

            let (result, delta_ms) = spanned(&mut rec, "mine.delta", || {
                engine.execute(&mut db, &round.statement)
            });
            let Some(remined) = out.attempt("rerun after DML", result) else {
                break 'sessions;
            };
            samples.delta.push(delta_ms);
            samples
                .delta_preprocess
                .push(ms(remined.timings.preprocess));

            if let (Some(rec), Some(span)) = (rec.as_mut(), round_span) {
                rec.close(span);
            }
            let round_ms = ms(round_start.elapsed());
            let factor = probe.factor();
            // The very first round of a run is the warm-up repetition.
            if !(first && r == 0) {
                samples.round.push(round_ms);
                samples.op.push(round_ms * factor);
            }
            if first && keep.contains(&r) {
                kept.push((r, remined.rules));
            }
        }
        if let (Some(rec), Some(span)) = (rec.as_mut(), session_span) {
            rec.close(span);
        }
        // A session is its statements, not the host readings between them.
        let probing = probe.spent_ms() - probing_before;
        samples.session.push(ms(session_start.elapsed()) - probing);
        if first {
            counters = Some(SessionCounters {
                snapshot: engine.metrics_snapshot(),
                before,
                after: db.stats(),
            });
            first = false;
        }
    }
    Sessions {
        samples,
        counters,
        cold_shape,
        kept,
    }
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) {
    let rounds = cfg.sizes.session_rounds;
    let (dataset, fingerprint, plan) = cfg.set_up(out, |times| {
        let (dataset, fingerprint) =
            times.generate(|| data::sparse_quest(cfg.sizes.session_baskets), cfg.seed);
        drop(times.load(&dataset));
        let plan = script(&dataset, rounds, cfg.seed);
        (dataset, fingerprint, plan)
    });
    out.set("datagen.rows", dataset.rows() as f64);
    if !cfg.sizes.quick {
        out.check_pin("dataset", PINNED.dataset, fingerprint);
    }

    // Three rounds of the first session are checked against a cold mine.
    let keep: Vec<usize> = [rounds / 4, rounds / 2, rounds - 1]
        .into_iter()
        .filter(|r| *r < rounds)
        .collect();

    let mut probe = Probe::start(MEMORY_EXPONENT);
    let Sessions {
        samples,
        counters,
        cold_shape,
        kept,
    } = run_sessions(
        &dataset,
        &plan,
        &mut cfg.budget(cfg.untraced_share()),
        &mut probe,
        out,
        None,
        &keep,
    );

    out.set_op_ms(&samples.op, &probe);
    out.set_median("mine_cold_ms", &samples.cold);
    out.set("mine_cold_ms.min", stats::min(&samples.cold));
    out.set("mine_cold_ms.p_tail", stats::tail(&samples.cold).1);
    out.set_median("session_ms", &samples.session);
    out.set_median("refine_ms", &samples.refine);
    out.set("refine_ms.p_tail", stats::tail(&samples.refine).1);
    out.set_median("delta_remine_ms", &samples.delta);
    out.set_median("dml_stmt_ms", &samples.insert);
    out.set("dml_stmt_ms.p_tail", stats::tail(&samples.insert).1);
    out.set("table.insert_us", stats::median(&samples.insert) * 1e3);
    out.set("table.delete_ms", stats::median(&samples.delete));
    out.set(
        "cache.warm_preprocess_ms",
        stats::median(&samples.refine_preprocess),
    );
    out.set("preprocess.ms", stats::median(&samples.delta_preprocess));

    if let (false, Some(shape)) = (cfg.sizes.quick, cold_shape) {
        out.check_pin("mined rule set", PINNED.rules, shape);
    }

    // Each kept rerun must equal a fresh engine's cold mine over a fresh
    // database that received the same DML.
    for (r, session_rules) in &kept {
        let mut db = dataset.fresh_db();
        let replayed = plan[..=*r].iter().try_for_each(|round| {
            round
                .inserts
                .iter()
                .chain([&round.delete])
                .try_for_each(|sql| db.execute(sql).map(drop))
        });
        if out
            .attempt("replaying the session's DML", replayed)
            .is_none()
        {
            continue;
        }
        let fresh = MineRuleEngine::new().execute(&mut db, &plan[*r].statement);
        if let Some(fresh) = out.attempt("cold mine over the mutated table", fresh) {
            out.check(data::rules_identical(session_rules, &fresh.rules), || {
                format!(
                    "round {r}: the session served {} rules, a cold mine {}: not bit-identical",
                    session_rules.len(),
                    fresh.rules.len()
                )
            });
        }
    }

    if !cfg.trace {
        return;
    }
    if let Some(c) = counters {
        out.set_relational(c.before, c.after);
        out.set_cache_counters(&c.snapshot);
    }
    let mut rec = Recorder::default();
    let traced = run_sessions(
        &dataset,
        &plan,
        &mut cfg.budget(0.5),
        &mut probe,
        out,
        Some(&mut rec),
        &[],
    )
    .samples;
    let untraced = stats::median(&samples.round);
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(stats::median(&traced.round) - untraced, untraced),
    );
    // Every statement of a round has its own span; what the spans leave
    // unaccounted is the round's self time.
    out.set("trace.coverage_pct", 100.0 * rec.child_coverage("round"));
    out.trace = Some(rec);
}

//! Experiment E7 — scalability sweeps, the shape every evaluation in the
//! paper's reference list reports: wall-clock vs number of groups and vs
//! the support threshold (lower support → exponentially more candidates).

use minerule::MineRuleEngine;
use tcdm_bench::bench::Group;
use tcdm_bench::{quest_db, simple_statement};

fn e7_group_scaling() {
    let mut group = Group::new("E7_group_scaling");
    for &transactions in &[250usize, 500, 1000, 2000] {
        group.bench_batched(
            &transactions.to_string(),
            || quest_db(transactions, 19),
            |mut db| {
                MineRuleEngine::new()
                    .execute(&mut db, &simple_statement(0.03, 0.4))
                    .unwrap()
            },
        );
    }
}

fn e7_support_sweep() {
    let mut group = Group::new("E7_support_sweep");
    for &support in &[0.08f64, 0.04, 0.02, 0.01] {
        group.bench_batched(
            &support.to_string(),
            || quest_db(1000, 19),
            |mut db| {
                MineRuleEngine::new()
                    .execute(&mut db, &simple_statement(support, 0.4))
                    .unwrap()
            },
        );
    }
}

fn main() {
    e7_group_scaling();
    e7_support_sweep();
}

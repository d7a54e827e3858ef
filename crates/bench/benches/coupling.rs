//! Experiment E1 — tightly-coupled kernel vs the decoupled baseline (§1's
//! argument): same mining task, identical rules, different architecture
//! cost. (Shared preprocessing, §3 — the old E2 — is what the kernel
//! benchmark's `refine_session` workload measures.)

use minerule::{decoupled, MineRuleEngine};
use tcdm_bench::bench::Group;
use tcdm_bench::{quest_db, simple_statement};

fn e1_coupled_vs_decoupled() {
    let mut group = Group::new("E1_coupling");
    for &transactions in &[500usize, 1500] {
        group.bench_batched(
            &format!("tightly_coupled/{transactions}"),
            || quest_db(transactions, 7),
            |mut db| {
                MineRuleEngine::new()
                    .execute(&mut db, &simple_statement(0.03, 0.4))
                    .unwrap()
            },
        );
        group.bench_batched(
            &format!("decoupled/{transactions}"),
            || quest_db(transactions, 7),
            |mut db| {
                decoupled::run_decoupled(
                    &mut db,
                    "SELECT tr, item FROM Baskets",
                    0.03,
                    0.4,
                    "FlatRules",
                )
                .unwrap()
            },
        );
    }
}

fn main() {
    e1_coupled_vs_decoupled();
}

//! Experiment E4 — the algorithm pool (§3 "algorithm interoperability"):
//! all pool members on identical encoded input, across support
//! thresholds. The architecture claim is that they are interchangeable;
//! the interesting measurement is how their relative cost shifts with the
//! threshold (Apriori/gid-lists win at high support, partitioning and
//! hash pruning pay off as thresholds drop and candidate sets grow).

use datagen::{generate_quest, QuestConfig};
use minerule::algo::{default_pool, SimpleInput};
use tcdm_bench::bench::Group;

fn pool_input(transactions: usize, min_support: f64) -> SimpleInput {
    let data = generate_quest(&QuestConfig {
        transactions,
        avg_transaction_size: 8.0,
        avg_pattern_size: 3.0,
        patterns: 50,
        items: 200,
        seed: 77,
        ..QuestConfig::default()
    });
    let total = data.transactions.len() as u32;
    SimpleInput {
        groups: data.transactions.into(),
        total_groups: total,
        min_groups: ((total as f64 * min_support).ceil() as u32).max(1),
    }
}

fn e4_algorithm_pool() {
    let mut group = Group::new("E4_algorithm_pool");
    for &support in &[0.05f64, 0.02, 0.01] {
        let input = pool_input(1500, support);
        for miner in default_pool() {
            group.bench(&format!("{}/s={support}", miner.name()), || {
                miner.mine(&input)
            });
        }
    }
}

fn main() {
    e4_algorithm_pool();
}

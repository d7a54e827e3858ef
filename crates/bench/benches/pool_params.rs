//! Experiment E9 — parameter ablations inside the algorithm pool:
//! partition count, DHP hash-table size, and
//! sampling fraction. These are the knobs the respective papers expose;
//! the architecture makes them swappable without touching the kernel.

use datagen::{generate_quest, QuestConfig};
use minerule::algo::dhp::Dhp;
use minerule::algo::partition::Partition;
use minerule::algo::sampling::Sampling;
use minerule::algo::{ItemsetMiner, SimpleInput};
use tcdm_bench::bench::Group;

fn input(min_support: f64) -> SimpleInput {
    let data = generate_quest(&QuestConfig {
        transactions: 1500,
        avg_transaction_size: 8.0,
        avg_pattern_size: 3.0,
        patterns: 50,
        items: 200,
        seed: 101,
        ..QuestConfig::default()
    });
    let total = data.transactions.len() as u32;
    SimpleInput {
        groups: data.transactions.into(),
        total_groups: total,
        min_groups: ((total as f64 * min_support).ceil() as u32).max(1),
    }
}

fn e9_partition_count() {
    let mut group = Group::new("E9_partition_count");
    let input = input(0.02);
    for &parts in &[1usize, 2, 4, 8, 16] {
        let miner = Partition { partitions: parts };
        group.bench(&parts.to_string(), || miner.mine(&input));
    }
}

fn e9_dhp_buckets() {
    let mut group = Group::new("E9_dhp_buckets");
    let input = input(0.02);
    for &buckets in &[1usize << 8, 1 << 12, 1 << 16, 1 << 20] {
        let miner = Dhp { buckets };
        group.bench(&buckets.to_string(), || miner.mine(&input));
    }
}

fn e9_sampling_fraction() {
    let mut group = Group::new("E9_sampling_fraction");
    let input = input(0.02);
    for &fraction in &[0.1f64, 0.25, 0.5, 0.75] {
        let miner = Sampling {
            sample_fraction: fraction,
            ..Sampling::default()
        };
        group.bench(&fraction.to_string(), || miner.mine(&input));
    }
}

fn main() {
    e9_partition_count();
    e9_dhp_buckets();
    e9_sampling_fraction();
}

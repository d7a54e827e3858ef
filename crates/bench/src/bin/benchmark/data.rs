//! Inputs: datasets, statements and fingerprints.
//!
//! A dataset's *shape* (basket sizes, planted patterns, who bought what
//! when) always comes from `datagen` under [`BASE_SEED`]; `--seed` then
//! relabels the items, reorders the baskets (Quest) or the customers
//! (retail) and, in the workloads that have them, draws the threshold
//! schedule and the DML keys. Every seed therefore hands the engine
//! different rows in a different order — different hash orders, string
//! comparisons and encodings — while the amount of mining work stays the
//! same. That is deliberate: mined-rule counts of independently seeded
//! Quest sets differ by up to 4× (12.9 k–46.5 k rules on the dense set),
//! which would bury every timing comparison across seeds in input
//! variance. It also lets the pinned fingerprints below hold for every
//! seed: they are taken over label-free shapes.

use datagen::rng::Rng;
use datagen::{
    generate_quest, generate_retail, load_quest, QuestConfig, QuestData, RetailConfig, RetailData,
};
use minerule::postprocess::DecodedRule;
use relational::Database;

use crate::stats::Fnv;

/// `(count, FNV-1a)`: rows of a dataset, or rules of a mined result.
pub type Fingerprint = (usize, u64);

/// Seed of every dataset's shape, and the default `--seed`.
pub const BASE_SEED: u64 = 7;

/// Dataset sizes and repetition counts. `full` is what the benchmark
/// measures; `quick` is the smoke scale of `--quick` and the unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub quick: bool,
    pub cold_baskets: usize,
    pub explosion_baskets: usize,
    /// Support threshold on the dense set. The rule count there depends
    /// on the pattern pool, not on the number of baskets, so the smoke
    /// scale has to ask for less instead of loading less.
    pub explosion_support: f64,
    pub retail_customers: usize,
    pub session_baskets: usize,
    pub session_rounds: usize,
    pub durable_baskets: usize,
    /// Rows per bulk-load `INSERT … VALUES` statement.
    pub load_chunk_rows: usize,
    pub durable_inserts: usize,
    pub durable_updates: usize,
    pub durable_deletes: usize,
    pub durable_query_reps: usize,
    /// Rows bulk-inserted after the queries; at full scale they take the
    /// table past the 256-page cache it fitted at load.
    pub durable_growth_rows: usize,
    /// Inserts after the checkpoint, left in the WAL for recovery.
    pub durable_tail_inserts: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        quick: false,
        cold_baskets: 20_000,
        explosion_baskets: 3_000,
        explosion_support: 0.03,
        retail_customers: 2_000,
        session_baskets: 10_000,
        session_rounds: 20,
        durable_baskets: 5_000,
        load_chunk_rows: 500,
        durable_inserts: 20,
        durable_updates: 5,
        durable_deletes: 5,
        durable_query_reps: 1,
        durable_growth_rows: 4_500,
        durable_tail_inserts: 20,
    };

    pub const QUICK: Sizes = Sizes {
        quick: true,
        cold_baskets: 200,
        explosion_baskets: 200,
        explosion_support: 0.15,
        retail_customers: 40,
        session_baskets: 150,
        session_rounds: 4,
        durable_baskets: 60,
        load_chunk_rows: 100,
        durable_inserts: 6,
        durable_updates: 2,
        durable_deletes: 2,
        durable_query_reps: 1,
        durable_growth_rows: 150,
        durable_tail_inserts: 3,
    };
}

/// A generated source table, ready to load into a fresh database.
#[derive(Debug, Clone)]
pub enum Dataset {
    Quest(QuestData),
    Retail(RetailData),
}

impl Dataset {
    pub fn table(&self) -> &'static str {
        match self {
            Dataset::Quest(_) => "Baskets",
            Dataset::Retail(_) => "Purchase",
        }
    }

    pub fn rows(&self) -> usize {
        match self {
            Dataset::Quest(d) => d.row_count(),
            Dataset::Retail(d) => d.rows.len(),
        }
    }

    /// A fresh memory-backend database holding just this table.
    pub fn fresh_db(&self) -> Database {
        let mut db = Database::new();
        match self {
            Dataset::Quest(d) => load_quest(d, &mut db, self.table()),
            Dataset::Retail(d) => d.load(&mut db, self.table()),
        }
        .expect("generated rows load into an empty database");
        db
    }

    /// `(rows, FNV-1a over every row)` — pinned for the base shape so
    /// drift in `datagen` is a reported failure, not a silent change of
    /// workload.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = Fnv::default();
        match self {
            Dataset::Quest(d) => {
                for (tr, item) in d.rows() {
                    h.u64(tr as u64);
                    h.u64(item as u64);
                }
            }
            Dataset::Retail(d) => {
                for r in &d.rows {
                    h.u64(r.tr as u64);
                    h.bytes(r.customer.as_bytes());
                    h.bytes(r.item.as_bytes());
                    h.bytes(r.date.to_string().as_bytes());
                    h.u64(r.price as u64);
                    h.u64(r.qty as u64);
                }
            }
        }
        (self.rows(), h.finish())
    }
}

/// The sparse Quest T8.I3 family of E1/E7 (`quest_db` in `tcdm-bench`).
pub fn sparse_quest(baskets: usize) -> Dataset {
    Dataset::Quest(generate_quest(&QuestConfig {
        transactions: baskets,
        avg_transaction_size: 8.0,
        avg_pattern_size: 3.0,
        patterns: 50,
        items: 200,
        seed: BASE_SEED,
        ..QuestConfig::default()
    }))
}

/// A dense Quest T12.I4 set over few items: tens of thousands of rules.
pub fn dense_quest(baskets: usize) -> Dataset {
    Dataset::Quest(generate_quest(&QuestConfig {
        transactions: baskets,
        avg_transaction_size: 12.0,
        avg_pattern_size: 4.0,
        patterns: 10,
        items: 50,
        seed: BASE_SEED,
        ..QuestConfig::default()
    }))
}

/// The retail generator of E3/E5 (`retail_db` in `tcdm-bench`).
pub fn retail(customers: usize) -> Dataset {
    Dataset::Retail(generate_retail(&RetailConfig {
        customers,
        dates_per_customer: 4,
        items_per_date: 2.5,
        catalog: 40,
        expensive_items: 12,
        seed: BASE_SEED,
        ..RetailConfig::default()
    }))
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_below(i as u64 + 1) as usize);
    }
}

/// Apply the seed: an isomorphic copy of `base` (see the module docs).
pub fn seeded(base: &Dataset, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    match base {
        Dataset::Quest(data) => {
            let mut relabel: Vec<u32> = (0..data.config.items).collect();
            shuffle(&mut relabel, &mut rng);
            let mut transactions = data.transactions.clone();
            shuffle(&mut transactions, &mut rng);
            for items in &mut transactions {
                for item in items.iter_mut() {
                    *item = relabel[*item as usize];
                }
                items.sort_unstable();
            }
            Dataset::Quest(QuestData {
                config: data.config,
                transactions,
            })
        }
        Dataset::Retail(data) => {
            // Customers are contiguous blocks of rows; move whole blocks,
            // then rename and renumber by new position.
            let mut blocks: Vec<&[datagen::retail::PurchaseRow]> = data
                .rows
                .chunk_by(|a, b| a.customer == b.customer)
                .collect();
            shuffle(&mut blocks, &mut rng);
            let mut rows = Vec::with_capacity(data.rows.len());
            let mut tr = 0;
            for (position, block) in blocks.iter().enumerate() {
                let mut last_tr = None;
                for row in block.iter() {
                    if last_tr != Some(row.tr) {
                        last_tr = Some(row.tr);
                        tr += 1;
                    }
                    let mut row = row.clone();
                    row.tr = tr;
                    row.customer = format!("cust{position:05}");
                    rows.push(row);
                }
            }
            Dataset::Retail(RetailData {
                config: data.config,
                rows,
            })
        }
    }
}

/// The simple-class statement of E1/E7 over the Quest baskets.
pub fn simple_statement(min_support: f64, min_confidence: f64) -> String {
    format!(
        "MINE RULE BenchRules AS \
         SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
         FROM Baskets GROUP BY tr \
         EXTRACTING RULES WITH SUPPORT: {min_support}, CONFIDENCE: {min_confidence}"
    )
}

/// The paper-shaped general-class statement over the retail table:
/// clusters by date, ordered in time, mining condition on price.
pub fn temporal_statement(min_support: f64, min_confidence: f64) -> String {
    format!(
        "MINE RULE BenchTemporal AS \
         SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
         WHERE BODY.price >= 100 AND HEAD.price < 100 \
         FROM Purchase GROUP BY customer \
         CLUSTER BY date HAVING BODY.date < HEAD.date \
         EXTRACTING RULES WITH SUPPORT: {min_support}, CONFIDENCE: {min_confidence}"
    )
}

/// Bit-exact equality of two rule lists (both arrive sorted by body,
/// head from `read_rules`).
pub fn rules_identical(a: &[DecodedRule], b: &[DecodedRule]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.body == y.body
                && x.head == y.head
                && x.support.to_bits() == y.support.to_bits()
                && x.confidence.to_bits() == y.confidence.to_bits()
        })
}

/// `(rule count, FNV-1a over the sorted label-free rule shapes)`: sizes
/// of body and head plus the exact support and confidence bits. Invariant
/// under the seed's relabelling, so one pinned value serves every seed.
pub fn rule_shape_fingerprint(rules: &[DecodedRule]) -> Fingerprint {
    let mut shapes: Vec<[u64; 4]> = rules
        .iter()
        .map(|r| {
            [
                r.body.len() as u64,
                r.head.len() as u64,
                r.support.to_bits(),
                r.confidence.to_bits(),
            ]
        })
        .collect();
    shapes.sort_unstable();
    let mut h = Fnv::default();
    for shape in &shapes {
        for &v in shape {
            h.u64(v);
        }
    }
    (rules.len(), h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_keeps_the_shape() {
        for base in [sparse_quest(200), retail(30)] {
            let a = seeded(&base, 3);
            let b = seeded(&base, 3);
            let c = seeded(&base, 4);
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_ne!(a.fingerprint().1, c.fingerprint().1);
            assert_eq!(a.rows(), base.rows());
            assert_eq!(c.rows(), base.rows());
        }
        // Basket sizes survive as a multiset.
        let (Dataset::Quest(base), Dataset::Quest(perm)) =
            (sparse_quest(200), seeded(&sparse_quest(200), 9))
        else {
            unreachable!()
        };
        let sizes = |d: &QuestData| {
            let mut v: Vec<usize> = d.transactions.iter().map(Vec::len).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&base), sizes(&perm));
    }

    #[test]
    fn retail_seeding_keeps_customers_contiguous_and_numbered() {
        let Dataset::Retail(data) = seeded(&retail(25), 11) else {
            unreachable!()
        };
        let customers: Vec<&str> = data
            .rows
            .chunk_by(|a, b| a.customer == b.customer)
            .map(|block| block[0].customer.as_str())
            .collect();
        assert_eq!(customers.len(), 25);
        assert!(customers.windows(2).all(|w| w[0] < w[1]));
        assert!(data
            .rows
            .windows(2)
            .all(|w| w[1].tr == w[0].tr || w[1].tr == w[0].tr + 1));
        assert_eq!(data.rows[0].tr, 1);
    }
}

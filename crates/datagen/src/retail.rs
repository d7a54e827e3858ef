//! Purchase-style retail generator for *general* MINE RULE statements.
//!
//! Produces rows shaped like the paper's Figure 1 `Purchase` table —
//! `(tr, customer, item, date, price, qty)` — with two planted structures
//! that the general core operator should recover:
//!
//! * **temporal follow-ups**: a purchase of an expensive item is followed,
//!   on a later date, by a purchase of its cheap complement (exercises
//!   `CLUSTER BY date HAVING BODY.date < HEAD.date` plus the price mining
//!   condition);
//! * **co-occurrence**: item pairs bought together on one date (exercises
//!   plain grouped rules).

use crate::rng::Rng;
use relational::{Date, Value};

/// Parameters of the retail model.
#[derive(Debug, Clone, Copy)]
pub struct RetailConfig {
    /// Number of customers (groups).
    pub customers: usize,
    /// Shopping dates per customer (clusters).
    pub dates_per_customer: usize,
    /// Items bought per date, on average.
    pub items_per_date: f64,
    /// Catalog size; item `k` is "expensive" when `k < expensive_items`.
    pub catalog: u32,
    /// How many catalog items cost ≥ 100.
    pub expensive_items: u32,
    /// Probability that an expensive purchase is followed by its cheap
    /// complement on the next date (the planted temporal rule).
    pub follow_up_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RetailConfig {
    fn default() -> Self {
        RetailConfig {
            customers: 200,
            dates_per_customer: 4,
            items_per_date: 3.0,
            catalog: 60,
            expensive_items: 20,
            follow_up_probability: 0.6,
            seed: 42,
        }
    }
}

/// One generated purchase row.
#[derive(Debug, Clone, PartialEq)]
pub struct PurchaseRow {
    pub tr: i64,
    pub customer: String,
    pub item: String,
    pub date: Date,
    pub price: i64,
    pub qty: i64,
}

/// The generated table plus its catalog metadata.
#[derive(Debug, Clone)]
pub struct RetailData {
    pub config: RetailConfig,
    pub rows: Vec<PurchaseRow>,
}

/// Item `k`'s display name.
pub fn item_name(k: u32) -> String {
    format!("item{k:04}")
}

/// Item `k`'s price: expensive items cost 100 + 10k, cheap ones 5 + k.
pub fn item_price(k: u32, expensive_items: u32) -> i64 {
    if k < expensive_items {
        100 + 10 * k as i64
    } else {
        5 + (k % 90) as i64
    }
}

/// The cheap complement of expensive item `k` (the planted follow-up).
pub fn complement_of(k: u32, config: &RetailConfig) -> u32 {
    config.expensive_items + (k % (config.catalog - config.expensive_items).max(1))
}

/// Generate the dataset.
pub fn generate(config: &RetailConfig) -> RetailData {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut rows = Vec::new();
    let mut tr: i64 = 0;
    let base_date = Date::from_ymd(1995, 1, 2).expect("valid base date");

    for c in 0..config.customers {
        let customer = format!("cust{c:05}");
        // Follow-ups scheduled for future dates: (date index, item).
        let mut pending: Vec<(usize, u32)> = Vec::new();
        for d in 0..config.dates_per_customer {
            tr += 1;
            let date = base_date.plus_days((d * 7 + (c % 7)) as i32);
            let mut items: Vec<u32> = Vec::new();
            // Deliver planted follow-ups due today.
            pending.retain(|&(due, item)| {
                if due == d {
                    items.push(item);
                    false
                } else {
                    true
                }
            });
            let n = 1 + rng.poisson(config.items_per_date - 1.0);
            while items.len() < n {
                let k = rng.gen_range_u32(0, config.catalog);
                if items.contains(&k) {
                    continue;
                }
                items.push(k);
                // An expensive purchase may plant its cheap complement on
                // the next date.
                if k < config.expensive_items
                    && d + 1 < config.dates_per_customer
                    && rng.gen_f64() < config.follow_up_probability
                {
                    pending.push((d + 1, complement_of(k, config)));
                }
            }
            items.sort_unstable();
            items.dedup();
            for k in items {
                rows.push(PurchaseRow {
                    tr,
                    customer: customer.clone(),
                    item: item_name(k),
                    date,
                    price: item_price(k, config.expensive_items),
                    qty: 1 + (rng.gen_f64() * 3.0) as i64,
                });
            }
        }
    }
    RetailData {
        config: *config,
        rows,
    }
}

impl RetailData {
    /// Load into a database as table `name` with the Figure 1 schema.
    pub fn load(&self, db: &mut relational::Database, name: &str) -> relational::Result<()> {
        db.execute(&format!(
            "CREATE TABLE {name} (tr INT, customer VARCHAR, item VARCHAR, \
             date DATE, price INT, qty INT)"
        ))?;
        let rows = self.rows.iter().map(|r| {
            vec![
                Value::Int(r.tr),
                Value::Str(r.customer.clone()),
                Value::Str(r.item.clone()),
                Value::Date(r.date),
                Value::Int(r.price),
                Value::Int(r.qty),
            ]
        });
        db.catalog_mut().table_mut(name)?.insert_all(rows)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = RetailConfig::default();
        assert_eq!(generate(&cfg).rows, generate(&cfg).rows);
        assert_ne!(
            generate(&cfg).rows,
            generate(&RetailConfig { seed: 1, ..cfg }).rows
        );
    }

    #[test]
    fn prices_split_at_100() {
        assert!(item_price(0, 20) >= 100);
        assert!(item_price(19, 20) >= 100);
        assert!(item_price(20, 20) < 100);
        assert!(item_price(59, 20) < 100);
    }

    #[test]
    fn rows_have_figure1_shape() {
        let data = generate(&RetailConfig {
            customers: 5,
            ..RetailConfig::default()
        });
        assert!(!data.rows.is_empty());
        for r in &data.rows {
            assert!(r.customer.starts_with("cust"));
            assert!(r.item.starts_with("item"));
            assert!(r.qty >= 1);
            assert!(r.price > 0);
        }
    }

    #[test]
    fn follow_ups_are_planted() {
        // With probability 1, every expensive purchase (except on the last
        // date) must be followed by its complement.
        let cfg = RetailConfig {
            customers: 20,
            follow_up_probability: 1.0,
            ..RetailConfig::default()
        };
        let data = generate(&cfg);
        let mut follow_ups = 0;
        for c in 0..cfg.customers {
            let customer = format!("cust{c:05}");
            let mine: Vec<&PurchaseRow> = data
                .rows
                .iter()
                .filter(|r| r.customer == customer)
                .collect();
            for r in &mine {
                if r.price >= 100 {
                    let k: u32 = r.item[4..].parse().unwrap();
                    let comp = item_name(complement_of(k, &cfg));
                    if mine.iter().any(|x| x.item == comp && x.date > r.date) {
                        follow_ups += 1;
                    }
                }
            }
        }
        assert!(follow_ups > 10, "planted follow-ups missing: {follow_ups}");
    }

    #[test]
    fn loads_into_database() {
        let mut db = relational::Database::new();
        let data = generate(&RetailConfig {
            customers: 3,
            ..RetailConfig::default()
        });
        data.load(&mut db, "Purchase").unwrap();
        let rs = db.query("SELECT COUNT(*) FROM Purchase").unwrap();
        assert_eq!(
            rs.scalar().unwrap(),
            &relational::Value::Int(data.rows.len() as i64)
        );
    }
}

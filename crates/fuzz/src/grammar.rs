//! The grammar: random schemas, data, SQL and MINE RULE statements.
//!
//! Everything is generated from a [`datagen::rng::Rng`] seed, so a
//! `(seed, case index)` pair always reproduces the same case. The module
//! also hosts the scenario generators that the per-feature agreement
//! suites (`tests/differential.rs`, `tests/sqlexec_agreement.rs`,
//! `tests/gidset_agreement.rs`) fold in, so the whole matrix of
//! randomized workloads lives in one place.

use datagen::rng::Rng;
use minerule::algo::SimpleInput;
use relational::{Database, Value};

use crate::{FuzzCase, Op, TableDef};

// ---------------------------------------------------------------------
// Shared scalar-expression grammar
// ---------------------------------------------------------------------

/// The column/literal pools a generated scalar expression draws from.
#[derive(Debug, Clone, Default)]
pub struct ExprCols {
    pub int_cols: Vec<String>,
    pub float_cols: Vec<String>,
    pub str_cols: Vec<String>,
    /// String literals (quoted already, e.g. `'alpha'`).
    pub str_literals: Vec<String>,
    /// LIKE patterns (quoted already, e.g. `'%a%'`).
    pub like_patterns: Vec<String>,
}

impl ExprCols {
    /// The pool used by the compiled-vs-interpreted expression suite: a
    /// table with every value class the expression language touches.
    pub fn abcs_fixture() -> ExprCols {
        ExprCols {
            int_cols: vec!["a".into(), "b".into()],
            float_cols: vec!["c".into()],
            str_cols: vec!["s".into()],
            str_literals: vec!["'alpha'".into()],
            like_patterns: vec![
                "'%a%'".into(),
                "'_eta'".into(),
                "'GAMMA__9'".into(),
                "'%'".into(),
            ],
        }
    }
}

/// A database holding the table `t (a INT, b INT, c FLOAT, s VARCHAR)`
/// that [`ExprCols::abcs_fixture`] names, over `rows` rows: ints
/// (positive, negative, zero), floats and strings, with NULL-heavy `b`
/// and `s` columns (every 3rd and every 4th row).
pub fn abcs_table(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT, c FLOAT, s VARCHAR)")
        .unwrap();
    let table = db.catalog_mut().table_mut("t").unwrap();
    for i in 0..rows as i64 {
        let b = if i % 3 == 0 {
            Value::Null
        } else {
            Value::Int((i % 11) - 5)
        };
        let s = if i % 4 == 0 {
            Value::Null
        } else {
            Value::Str(["alpha", "Beta", "GAMMA_9"][(i % 3) as usize].to_string())
        };
        table
            .insert(vec![
                Value::Int(i - 2),
                b,
                Value::Float((i as f64) * 0.25 - 1.5),
                s,
            ])
            .unwrap();
    }
    db
}

/// A random leaf: a column reference, `NULL`, or a literal. The grammar
/// deliberately mixes types, so expressions can be ill-typed or erroring
/// (string arithmetic, division by zero) — every execution strategy must
/// report the *same* result or error for those.
pub fn gen_leaf(rng: &mut Rng, cols: &ExprCols) -> String {
    for _ in 0..8 {
        let pick = rng.gen_below(10);
        let pool: &[String] = match pick {
            0 | 1 => &cols.int_cols,
            2 => &cols.float_cols,
            3 => &cols.str_cols,
            _ => &[],
        };
        if pick <= 3 {
            if pool.is_empty() {
                continue;
            }
            return pool[rng.gen_range_usize(0, pool.len())].clone();
        }
        return match pick {
            4 => "NULL".into(),
            5 => "0".into(),
            6 => format!("{}", rng.gen_below(20) as i64 - 10),
            7 => "1.5".into(),
            8 if !cols.str_literals.is_empty() => {
                cols.str_literals[rng.gen_range_usize(0, cols.str_literals.len())].clone()
            }
            _ => "2".into(),
        };
    }
    "2".into()
}

/// A random scalar expression of bounded depth over the given pools,
/// covering arithmetic, comparisons, AND/OR/NOT, BETWEEN, IS NULL, IN,
/// CASE, ABS/LENGTH, LIKE, and UPPER/LOWER.
pub fn gen_expr(rng: &mut Rng, depth: usize, cols: &ExprCols) -> String {
    if depth == 0 {
        return gen_leaf(rng, cols);
    }
    let sub = |rng: &mut Rng| gen_expr(rng, depth - 1, cols);
    match rng.gen_below(14) {
        0 => gen_leaf(rng, cols),
        1 => {
            let op = ["+", "-", "*", "/"][rng.gen_below(4) as usize];
            format!("({} {op} {})", sub(rng), sub(rng))
        }
        2 => {
            let op = ["=", "<>", "<", "<=", ">", ">="][rng.gen_below(6) as usize];
            format!("({} {op} {})", sub(rng), sub(rng))
        }
        3 => format!("({} AND {})", sub(rng), sub(rng)),
        4 => format!("({} OR {})", sub(rng), sub(rng)),
        5 => format!("(NOT {})", sub(rng)),
        6 => format!(
            "({} BETWEEN {} AND {})",
            sub(rng),
            gen_leaf(rng, cols),
            gen_leaf(rng, cols)
        ),
        7 => {
            let not = if rng.gen_below(2) == 0 { "" } else { " NOT" };
            format!("({}{not} IS NULL)", sub(rng))
        }
        8 => {
            let not = if rng.gen_below(2) == 0 { "" } else { "NOT " };
            format!(
                "({} {not}IN ({}, {}, {}))",
                sub(rng),
                gen_leaf(rng, cols),
                gen_leaf(rng, cols),
                gen_leaf(rng, cols)
            )
        }
        9 => format!(
            "(CASE WHEN {} THEN {} ELSE {} END)",
            sub(rng),
            sub(rng),
            sub(rng)
        ),
        10 => format!("ABS({})", sub(rng)),
        11 => format!("LENGTH({})", sub(rng)),
        12 if !cols.str_cols.is_empty() && !cols.like_patterns.is_empty() => {
            let col = &cols.str_cols[rng.gen_range_usize(0, cols.str_cols.len())];
            let pat = &cols.like_patterns[rng.gen_range_usize(0, cols.like_patterns.len())];
            format!("({col} LIKE {pat})")
        }
        _ => {
            let f = ["UPPER", "LOWER"][rng.gen_below(2) as usize];
            format!("{f}({})", sub(rng))
        }
    }
}

// ---------------------------------------------------------------------
// Folded-in scenario generators (differential / gidset suites)
// ---------------------------------------------------------------------

/// Up to 5 customers, each with up to 6 purchases over 3 dates and 8
/// items — the differential suite's compact dataset description.
pub fn random_purchases(rng: &mut Rng) -> Vec<Vec<(u8, u8)>> {
    let customers = rng.gen_range_usize(1, 5);
    (0..customers)
        .map(|_| {
            let n = rng.gen_range_usize(1, 6);
            (0..n)
                .map(|_| (rng.gen_range_u32(0, 3) as u8, rng.gen_range_u32(0, 8) as u8))
                .collect()
        })
        .collect()
}

/// Build a Purchase-like database from a compact description: for each
/// customer, a list of (date index, item id) purchases. Item prices are
/// deterministic: items 0..3 cost ≥ 100, the rest < 100.
pub fn build_purchase_db(purchases: &[Vec<(u8, u8)>]) -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE Purchase (tr INT, customer VARCHAR, item VARCHAR, \
         date DATE, price INT, qty INT)",
    )
    .unwrap();
    let base = relational::Date::from_ymd(1995, 3, 1).unwrap();
    let table = db.catalog_mut().table_mut("Purchase").unwrap();
    let mut tr = 0i64;
    for (c, items) in purchases.iter().enumerate() {
        for &(d, k) in items {
            tr += 1;
            table
                .insert(vec![
                    Value::Int(tr),
                    Value::Str(format!("c{c}")),
                    Value::Str(format!("it{k}")),
                    Value::Date(base.plus_days(d as i32)),
                    Value::Int(if k < 4 { 120 + k as i64 } else { 10 + k as i64 }),
                    Value::Int(1),
                ])
                .unwrap();
        }
    }
    db
}

/// A random core-operator workload: `groups` baskets over a
/// `catalog`-item universe, each item drawn independently with
/// probability `density`. Small catalogs with high density force the
/// bitset arm of the gid-set density heuristic; large catalogs with low
/// density keep it on lists (the gid-set agreement suite's generator).
pub fn random_simple_input(groups: usize, catalog: u32, density: f64, seed: u64) -> SimpleInput {
    let mut rng = Rng::seed_from_u64(seed);
    let transactions: Vec<Vec<u32>> = (0..groups)
        .map(|_| {
            (0..catalog)
                .filter(|_| rng.gen_f64() < density)
                .collect::<Vec<u32>>()
        })
        .collect();
    let total = transactions.len() as u32;
    // Support low enough that several levels survive at every density.
    let min_groups = ((total as f64 * density * 0.5).ceil() as u32).max(2);
    SimpleInput {
        groups: transactions,
        total_groups: total,
        min_groups,
    }
}

// ---------------------------------------------------------------------
// Case generation
// ---------------------------------------------------------------------

/// Knobs of the case generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Upper bound on total data rows across a case's tables.
    pub max_rows: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { max_rows: 36 }
    }
}

/// What the generator knows about a table it created (for building
/// later well-typed queries against it).
struct GenTable {
    name: String,
    int_cols: Vec<String>,
    float_cols: Vec<String>,
    str_cols: Vec<String>,
}

impl GenTable {
    fn expr_cols(&self, items: u32) -> ExprCols {
        let mut lits: Vec<String> = (0..3.min(items)).map(|k| format!("'it{k}'")).collect();
        lits.push("'c0'".into());
        ExprCols {
            int_cols: self.int_cols.clone(),
            float_cols: self.float_cols.clone(),
            str_cols: self.str_cols.clone(),
            str_literals: lits,
            like_patterns: vec!["'it%'".into(), "'%2'".into(), "'it_'".into(), "'%'".into()],
        }
    }

    fn any_col(&self, rng: &mut Rng) -> String {
        let mut all: Vec<&String> = self.int_cols.iter().collect();
        all.extend(self.str_cols.iter());
        all[rng.gen_range_usize(0, all.len())].clone()
    }
}

/// The full per-case generator state.
struct Gen<'a> {
    rng: &'a mut Rng,
    cfg: &'a GenConfig,
    /// Item-universe size of the fact table (item ids `it0..it{items-1}`).
    items: u32,
    customers: u32,
    tables: Vec<GenTable>,
    /// Does the case include the `Product` dimension table?
    has_dim: bool,
    next_snap: u32,
    next_mine: u32,
}

/// Deterministic price per item id: the low ids are "expensive"
/// (≥ 100), the rest cheap — so price-based mining conditions bite.
fn price_of(item: u32) -> i64 {
    if item < 3 {
        110 + 10 * item as i64
    } else {
        15 + 5 * item as i64
    }
}

/// Generate the case for `(seed, index)`: schema + data + operations.
pub fn gen_case(seed: u64, index: u64, cfg: &GenConfig) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(seed ^ index.wrapping_mul(0x9e3779b97f4a7c15));
    let mut g = Gen {
        items: rng.gen_range_u32(5, 9),
        customers: rng.gen_range_u32(2, 6),
        rng: &mut rng,
        cfg,
        tables: Vec::new(),
        has_dim: false,
        next_snap: 0,
        next_mine: 0,
    };
    let mut case = FuzzCase::default();
    g.gen_tables(&mut case);
    g.gen_ops(&mut case);
    case
}

impl Gen<'_> {
    // ---- schema + data -------------------------------------------------

    fn gen_tables(&mut self, case: &mut FuzzCase) {
        let mut budget = self.cfg.max_rows.max(4);

        // The fact table is always present: the mining workload.
        let fact_rows = (budget * 7 / 10).max(4).min(budget);
        budget -= fact_rows;
        case.tables.push(self.gen_fact(fact_rows));
        self.tables.push(GenTable {
            name: "Purchase".into(),
            int_cols: vec!["tr".into(), "price".into(), "qty".into()],
            float_cols: vec![],
            str_cols: vec!["customer".into(), "item".into()],
        });

        // Sometimes a dimension table keyed on a distinct column name, so
        // mine-over-join source queries stay unambiguous (WARMeR-style).
        if budget >= self.items as usize && self.rng.gen_below(2) == 0 {
            self.has_dim = true;
            let rows: Vec<String> = (0..self.items)
                .map(|k| format!("('it{k}', 'cat{}', {})", k % 3, (k % 4) as i64 + 1))
                .collect();
            budget -= rows.len();
            case.tables.push(TableDef {
                name: "Product".into(),
                create: "CREATE TABLE Product (pitem VARCHAR, category VARCHAR, grade INT)".into(),
                rows,
            });
            self.tables.push(GenTable {
                name: "Product".into(),
                int_cols: vec!["grade".into()],
                float_cols: vec![],
                str_cols: vec!["pitem".into(), "category".into()],
            });
        }

        // Sometimes a small unrelated table with a FLOAT column, for the
        // plain-SQL side of the grammar.
        if budget >= 3 && self.rng.gen_below(2) == 0 {
            let n = self.rng.gen_range_usize(2, budget.min(6) + 1);
            let rows: Vec<String> = (0..n)
                .map(|k| {
                    format!(
                        "({}, 'v{}', {}.{})",
                        k as i64 - 1,
                        self.rng.gen_below(4),
                        self.rng.gen_below(9),
                        self.rng.gen_below(100)
                    )
                })
                .collect();
            case.tables.push(TableDef {
                name: "Misc".into(),
                create: "CREATE TABLE Misc (k INT, v VARCHAR, f FLOAT)".into(),
                rows,
            });
            self.tables.push(GenTable {
                name: "Misc".into(),
                int_cols: vec!["k".into()],
                float_cols: vec!["f".into()],
                str_cols: vec!["v".into()],
            });
        }
    }

    fn gen_fact(&mut self, rows: usize) -> TableDef {
        let base = relational::Date::from_ymd(1995, 3, 1).unwrap();
        let mut tuples: Vec<String> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut attempts = 0;
        while tuples.len() < rows && attempts < rows * 4 {
            attempts += 1;
            let c = self.rng.gen_range_u32(0, self.customers);
            let d = self.rng.gen_range_u32(0, 3);
            let k = self.rng.gen_range_u32(0, self.items);
            if !seen.insert((c, d, k)) {
                continue; // no exact duplicate basket lines
            }
            let qty = 1 + self.rng.gen_below(3) as i64;
            // tr identifies the (customer, date) basket.
            let tr = (c * 10 + d) as i64;
            tuples.push(format!(
                "({tr}, 'c{c}', 'it{k}', DATE '{}', {}, {qty})",
                base.plus_days(d as i32),
                price_of(k),
            ));
        }
        TableDef {
            name: "Purchase".into(),
            create: "CREATE TABLE Purchase (tr INT, customer VARCHAR, item VARCHAR, \
                     date DATE, price INT, qty INT)"
                .into(),
            rows: tuples,
        }
    }

    // ---- operations ----------------------------------------------------

    fn gen_ops(&mut self, case: &mut FuzzCase) {
        let queries = self.rng.gen_range_usize(2, 5);
        let mines = self.rng.gen_range_usize(1, 3);
        let dmls = self.rng.gen_range_usize(0, 4);

        // Interleave: build a shuffled tag list, then emit in order.
        let mut tags: Vec<u8> = vec![0u8; queries];
        tags.extend(std::iter::repeat(1u8).take(mines));
        tags.extend(std::iter::repeat(2u8).take(dmls));
        // Fisher-Yates with the case RNG.
        for i in (1..tags.len()).rev() {
            let j = self.rng.gen_range_usize(0, i + 1);
            tags.swap(i, j);
        }

        for tag in tags {
            match tag {
                0 => {
                    let q = self.gen_query();
                    case.ops.push(Op::Query(q));
                }
                1 => self.gen_mine_ops(case),
                _ => {
                    let d = self.gen_dml();
                    case.ops.push(Op::Dml(d));
                }
            }
        }
    }

    fn table(&mut self) -> usize {
        self.rng.gen_range_usize(0, self.tables.len())
    }

    // ---- SQL queries ---------------------------------------------------

    fn gen_query(&mut self) -> String {
        match self.rng.gen_below(6) {
            0 => self.gen_simple_select(),
            1 => self.gen_aggregate_select(),
            2 => self.gen_join_select(),
            3 => self.gen_set_op(),
            4 => self.gen_subquery_select(),
            _ => self.gen_derived_select(),
        }
    }

    fn gen_simple_select(&mut self) -> String {
        let t = self.table();
        let cols = self.tables[t].expr_cols(self.items);
        let name = self.tables[t].name.clone();
        let distinct = if self.rng.gen_below(3) == 0 {
            "DISTINCT "
        } else {
            ""
        };
        let nproj = self.rng.gen_range_usize(1, 4);
        let projs: Vec<String> = (0..nproj)
            .map(|i| format!("{} AS p{i}", gen_expr(self.rng, 2, &cols)))
            .collect();
        let pred = if self.rng.gen_below(3) > 0 {
            format!(" WHERE {}", gen_expr(self.rng, 2, &cols))
        } else {
            String::new()
        };
        format!("SELECT {distinct}{} FROM {name}{pred}", projs.join(", "))
    }

    fn gen_aggregate_select(&mut self) -> String {
        let t = self.table();
        let table = &self.tables[t];
        let name = table.name.clone();
        let key = table.any_col(self.rng);
        let icol = if table.int_cols.is_empty() {
            "1".to_string()
        } else {
            table.int_cols[self.rng.gen_range_usize(0, table.int_cols.len())].clone()
        };
        let agg = match self.rng.gen_below(4) {
            0 => format!("SUM({icol})"),
            1 => format!("MAX({icol})"),
            2 => format!("MIN({icol})"),
            _ => format!("AVG({icol})"),
        };
        let cols = self.tables[t].expr_cols(self.items);
        let pred = if self.rng.gen_below(2) == 0 {
            format!(" WHERE {}", gen_expr(self.rng, 1, &cols))
        } else {
            String::new()
        };
        let having = match self.rng.gen_below(3) {
            0 => format!(" HAVING COUNT(*) >= {}", 1 + self.rng.gen_below(3)),
            1 => format!(" HAVING {agg} > {}", self.rng.gen_below(50)),
            _ => String::new(),
        };
        format!("SELECT {key}, COUNT(*), {agg} FROM {name}{pred} GROUP BY {key}{having}")
    }

    fn gen_join_select(&mut self) -> String {
        // Fact self-join or fact-dimension join, comma or explicit form.
        if self.has_dim && self.rng.gen_below(2) == 0 {
            let extra = if self.rng.gen_below(2) == 0 {
                format!(" AND price >= {}", 20 + 10 * self.rng.gen_below(10))
            } else {
                String::new()
            };
            match self.rng.gen_below(4) {
                // Written disconnected: Product joins nothing before p2.
                3 => format!(
                    "SELECT p1.customer, p2.item, category FROM Purchase p1, Product, \
                     Purchase p2 WHERE p1.tr = p2.tr AND p2.item = pitem{}",
                    extra.replace("price", "p1.price")
                ),
                0 => format!(
                    "SELECT customer, category, COUNT(*) FROM Purchase, Product \
                     WHERE item = pitem{extra} GROUP BY customer, category"
                ),
                1 => format!(
                    "SELECT DISTINCT item, grade FROM Purchase JOIN Product \
                     ON item = pitem{extra}"
                ),
                _ => format!(
                    "SELECT p.item, d.category FROM Purchase p LEFT OUTER JOIN Product d \
                     ON p.item = d.pitem{extra}"
                ),
            }
        } else {
            let key = ["customer", "tr", "item", "date"][self.rng.gen_below(4) as usize];
            let cmp = ["<", "<=", "<>"][self.rng.gen_below(3) as usize];
            match self.rng.gen_below(3) {
                0 => format!(
                    "SELECT p1.item, p2.item FROM Purchase p1, Purchase p2 \
                     WHERE p1.{key} = p2.{key} AND p1.item {cmp} p2.item"
                ),
                1 => format!(
                    "SELECT p1.tr, p2.item FROM Purchase p1 JOIN Purchase p2 \
                     ON p1.{key} = p2.{key} AND p1.price > p2.price"
                ),
                _ => format!(
                    "SELECT COUNT(*) FROM Purchase p1, Purchase p2 \
                     WHERE p1.{key} = p2.{key} AND p1.qty {cmp} p2.qty"
                ),
            }
        }
    }

    fn gen_set_op(&mut self) -> String {
        let t = self.table();
        let table = &self.tables[t];
        let name = table.name.clone();
        let col = table.any_col(self.rng);
        let cols = self.tables[t].expr_cols(self.items);
        let op = ["UNION", "INTERSECT", "EXCEPT"][self.rng.gen_below(3) as usize];
        let p1 = gen_expr(self.rng, 1, &cols);
        let p2 = gen_expr(self.rng, 1, &cols);
        format!("SELECT {col} FROM {name} WHERE {p1} {op} SELECT {col} FROM {name} WHERE {p2}")
    }

    fn gen_subquery_select(&mut self) -> String {
        match self.rng.gen_below(4) {
            0 => "SELECT item FROM Purchase WHERE price > \
                  (SELECT AVG(price) FROM Purchase)"
                .into(),
            1 => format!(
                "SELECT DISTINCT customer FROM Purchase WHERE item IN \
                 (SELECT item FROM Purchase WHERE qty >= {})",
                1 + self.rng.gen_below(3)
            ),
            2 => format!(
                "SELECT DISTINCT item FROM Purchase WHERE {}EXISTS \
                 (SELECT tr FROM Purchase WHERE qty >= {})",
                ["", "NOT "][self.rng.gen_below(2) as usize],
                2 + self.rng.gen_below(3)
            ),
            _ => "SELECT DISTINCT p1.item FROM Purchase p1 WHERE EXISTS \
                  (SELECT * FROM Purchase p2 WHERE p2.item = p1.item AND p2.tr <> p1.tr)"
                .into(),
        }
    }

    fn gen_derived_select(&mut self) -> String {
        let cut = 50 + 25 * self.rng.gen_below(20);
        format!(
            "SELECT customer, total FROM (SELECT customer, SUM(price * qty) AS total \
             FROM Purchase GROUP BY customer) spend WHERE total > {cut}"
        )
    }

    // ---- DML / DDL -----------------------------------------------------

    fn gen_dml(&mut self) -> String {
        let item = self.rng.gen_range_u32(0, self.items);
        match self.rng.gen_below(7) {
            0 => {
                let c = self.rng.gen_range_u32(0, self.customers);
                let d = self.rng.gen_below(3);
                format!(
                    "INSERT INTO Purchase VALUES ({}, 'c{c}', 'it{item}', \
                     DATE '1995-03-{:02}', {}, {})",
                    (c * 10 + d as u32) as i64,
                    d + 1,
                    price_of(item),
                    1 + self.rng.gen_below(3)
                )
            }
            1 => format!(
                "UPDATE Purchase SET price = price + {} WHERE item = 'it{item}'",
                1 + self.rng.gen_below(9)
            ),
            2 => format!(
                "UPDATE Purchase SET qty = qty + 1 WHERE tr <= {}",
                self.rng.gen_below(30)
            ),
            3 => {
                let pred = match self.rng.gen_below(3) {
                    0 => format!("item = 'it{item}' AND qty = 1"),
                    1 => format!("tr = {}", self.rng.gen_below(40)),
                    _ => format!("price > {} AND qty >= 3", 40 + self.rng.gen_below(80)),
                };
                format!("DELETE FROM Purchase WHERE {pred}")
            }
            4 => format!(
                "DELETE FROM Purchase WHERE price > (SELECT MAX(price) - {} FROM Purchase)",
                self.rng.gen_below(10)
            ),
            5 => format!(
                "UPDATE Purchase SET qty = (SELECT MAX(qty) FROM Purchase) \
                 WHERE item IN (SELECT item FROM Purchase WHERE price < {})",
                20 + 10 * self.rng.gen_below(5)
            ),
            _ => {
                // DDL: snapshot a projection into a new table, which later
                // queries may reference.
                let snap = format!("Snap{}", self.next_snap);
                self.next_snap += 1;
                let pred = match self.rng.gen_below(3) {
                    0 => format!("price >= {}", 20 + 10 * self.rng.gen_below(10)),
                    1 => format!("qty >= {}", 1 + self.rng.gen_below(2)),
                    _ => format!("customer <> 'c{}'", self.rng.gen_below(3)),
                };
                let stmt = format!(
                    "CREATE TABLE {snap} AS SELECT tr, customer, item, price, qty \
                     FROM Purchase WHERE {pred}"
                );
                self.tables.push(GenTable {
                    name: snap,
                    int_cols: vec!["tr".into(), "price".into(), "qty".into()],
                    float_cols: vec![],
                    str_cols: vec!["customer".into(), "item".into()],
                });
                stmt
            }
        }
    }

    // ---- MINE RULE statements ------------------------------------------

    /// Emit a mine statement, plus (sometimes) an interactive-session
    /// continuation of it: an identical rerun, a tightened- or
    /// loosened-threshold rerun, a source-table delta (INSERT/DELETE)
    /// followed by the same statement again, or a chained session of two
    /// deltas each followed by a rerun. Together these exercise the
    /// preprocess-cache hit path and every mined-result cache path —
    /// plain hit, refine, clean loosened miss and incremental delta
    /// re-mining — under every knob mix.
    fn gen_mine_ops(&mut self, case: &mut FuzzCase) {
        let out = format!("R{}", self.next_mine);
        self.next_mine += 1;
        let (stmt, support, confidence) = self.gen_mine(&out);
        // Every mine op is followed by a read of each decoded output
        // table, so the matrix compares `<out>`, `<out>_Bodies` and
        // `<out>_Heads` as stored, not only the returned rules. The reads
        // are fixed text: nothing is drawn from the case RNG for them.
        let mine = |case: &mut FuzzCase, stmt: String| {
            case.ops.push(Op::Mine(stmt));
            for table in [out.clone(), format!("{out}_Bodies"), format!("{out}_Heads")] {
                case.ops.push(Op::Query(format!("SELECT * FROM {table}")));
            }
        };
        mine(case, stmt.clone());
        // After a rerun over a changed source, the encoded tables too —
        // re-derived from the kept source digest, or built cold — so the
        // matrix compares them across every configuration. Fixed text
        // again. Only after a rerun at the first mine's support: when a
        // delta leaves the source unchanged, a tightened rerun reinstates
        // the tables pruned at the looser threshold (the superset rule),
        // which a cold run does not build (`tests/fuzz_open/`).
        let read_encoding = |case: &mut FuzzCase| {
            for table in ["Bset", "ValidGroups", "CodedSource"] {
                case.ops.push(Op::Query(format!("SELECT * FROM {table}")));
            }
        };
        let tightened = |stmt: &str| {
            let s2 = (support * 2.0).min(1.0);
            let c2 = (confidence + 0.2).min(1.0);
            stmt.replace(
                &format!("SUPPORT: {support}, CONFIDENCE: {confidence}"),
                &format!("SUPPORT: {s2}, CONFIDENCE: {c2}"),
            )
        };
        match self.rng.gen_below(7) {
            0 => mine(case, stmt), // identical rerun
            1 | 2 => {
                // Tightened thresholds: the caches' superset rules admit
                // these as warm hits.
                mine(case, tightened(&stmt));
            }
            3 => {
                // Loosened support: the mined-result cache must miss
                // cleanly and re-mine at the lower threshold.
                let s2 = support / 2.0;
                let loosened = stmt.replace(
                    &format!("SUPPORT: {support}, CONFIDENCE: {confidence}"),
                    &format!("SUPPORT: {s2}, CONFIDENCE: {confidence}"),
                );
                mine(case, loosened);
            }
            4 => {
                // Source delta, then the same statement again: exercises
                // incremental delta re-mining (and its full-mine
                // fallbacks) against the cold baseline.
                let dml = self.gen_delta_dml();
                case.ops.push(Op::Dml(dml));
                mine(case, stmt);
                read_encoding(case);
            }
            5 => {
                // A chained session: delta → mine → delta → mine at
                // tightened thresholds. The second replay lands on an
                // entry a delta already rewrote (copy-on-write no longer
                // shields it), and the refine then filters those counts.
                for (rerun, read) in [(stmt.clone(), true), (tightened(&stmt), false)] {
                    let dml = self.gen_delta_dml();
                    case.ops.push(Op::Dml(dml));
                    mine(case, rerun);
                    if read {
                        read_encoding(case);
                    }
                }
            }
            _ => {}
        }
    }

    /// A tracked source mutation for the delta-rerun pattern: an INSERT
    /// into an existing or fresh group, or a row-level DELETE. (UPDATEs
    /// are generated by the ordinary DML pool; they log as delete+insert
    /// pairs and ride the same incremental delta path.)
    fn gen_delta_dml(&mut self) -> String {
        let item = self.rng.gen_range_u32(0, self.items);
        match self.rng.gen_below(3) {
            0 => {
                // Grow an existing transaction's range.
                let c = self.rng.gen_range_u32(0, self.customers);
                let d = self.rng.gen_below(3);
                format!(
                    "INSERT INTO Purchase VALUES ({}, 'c{c}', 'it{item}', \
                     DATE '1995-03-{:02}', {}, {})",
                    (c * 10 + d as u32) as i64,
                    d + 1,
                    price_of(item),
                    1 + self.rng.gen_below(3)
                )
            }
            1 => {
                // A whole new group.
                let c = self.rng.gen_range_u32(0, self.customers);
                format!(
                    "INSERT INTO Purchase VALUES ({}, 'c{c}', 'it{item}', \
                     DATE '1995-03-03', {}, 1)",
                    500 + self.rng.gen_below(40) as i64,
                    price_of(item),
                )
            }
            _ => format!(
                "DELETE FROM Purchase WHERE item = 'it{item}' AND tr = {}",
                self.rng.gen_below(40)
            ),
        }
    }

    fn gen_mine(&mut self, out: &str) -> (String, f64, f64) {
        let support = [0.1, 0.2, 0.25, 0.3, 0.4, 0.5][self.rng.gen_range_usize(0, 6)];
        let confidence = [0.1, 0.2, 0.5, 0.7][self.rng.gen_range_usize(0, 4)];
        let group_by = ["customer", "tr"][self.rng.gen_below(2) as usize];

        // Over-join variant: mine association rules over the fact-dim
        // join, with the body/head built from the dimension attribute.
        if self.has_dim && self.rng.gen_below(5) == 0 {
            let stmt = format!(
                "MINE RULE {out} AS SELECT DISTINCT 1..n category AS BODY, \
                 1..1 category AS HEAD, SUPPORT, CONFIDENCE \
                 FROM Purchase, Product WHERE item = pitem GROUP BY customer \
                 EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
            );
            return (stmt, support, confidence);
        }

        // Element schemas: disjoint from grouping/clustering by
        // construction. `qty` in a schema removes it from the cluster
        // pool; `tr` grouping removes nothing we use.
        let (body_schema, head_schema) = match self.rng.gen_below(6) {
            0 | 1 => ("item", "item"),
            2 => ("item", "qty"), // cross-schema heads
            3 => ("qty", "item"),
            4 => ("item, qty", "item, qty"),
            _ => ("item", "item"),
        };
        let uses_qty = body_schema.contains("qty") || head_schema.contains("qty");

        let body_card = ["1..1", "1..2", "1..n", "1..n"][self.rng.gen_below(4) as usize];
        let head_card = ["1..1", "1..1", "1..2", "2..2"][self.rng.gen_below(4) as usize];

        // Optional clauses, drawn independently.
        let mining_cond = match self.rng.gen_below(5) {
            0 => Some("BODY.price >= 100 AND HEAD.price < 100".to_string()),
            1 => Some("BODY.price > HEAD.price".to_string()),
            2 if !uses_qty => Some(format!("HEAD.qty >= {}", 1 + self.rng.gen_below(2))),
            _ => None,
        };
        let source_cond = match self.rng.gen_below(5) {
            0 => Some(format!("price < {}", 60 + 20 * self.rng.gen_below(6))),
            1 => Some("date BETWEEN DATE '1995-03-01' AND DATE '1995-03-02'".to_string()),
            2 => Some(format!(
                "qty >= 1 AND price >= {}",
                10 + self.rng.gen_below(40)
            )),
            _ => None,
        };
        let group_cond = match self.rng.gen_below(4) {
            0 => Some(format!("COUNT(item) >= {}", 1 + self.rng.gen_below(3))),
            _ => None,
        };
        // Clustering: only `date` qualifies (disjoint from every schema we
        // generate and from both grouping choices).
        let (cluster_by, cluster_cond) = if self.rng.gen_below(3) == 0 {
            let cond = match self.rng.gen_below(4) {
                0 => Some("BODY.date < HEAD.date".to_string()),
                1 => Some("BODY.date <= HEAD.date".to_string()),
                2 => Some("SUM(BODY.price) > SUM(HEAD.price)".to_string()),
                _ => None,
            };
            (Some("date"), cond)
        } else {
            (None, None)
        };

        let mut stmt = format!(
            "MINE RULE {out} AS SELECT DISTINCT {body_card} {body_schema} AS BODY, \
             {head_card} {head_schema} AS HEAD, SUPPORT, CONFIDENCE"
        );
        if let Some(m) = &mining_cond {
            stmt.push_str(&format!(" WHERE {m}"));
        }
        stmt.push_str(" FROM Purchase");
        if let Some(w) = &source_cond {
            stmt.push_str(&format!(" WHERE {w}"));
        }
        stmt.push_str(&format!(" GROUP BY {group_by}"));
        if let Some(h) = &group_cond {
            stmt.push_str(&format!(" HAVING {h}"));
        }
        if let Some(cb) = cluster_by {
            stmt.push_str(&format!(" CLUSTER BY {cb}"));
            if let Some(cc) = &cluster_cond {
                stmt.push_str(&format!(" HAVING {cc}"));
            }
        }
        stmt.push_str(&format!(
            " EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        ));
        (stmt, support, confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minerule::parse_mine_rule;

    #[test]
    fn cases_are_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let a = gen_case(7, 3, &cfg);
        let b = gen_case(7, 3, &cfg);
        let c = gen_case(8, 3, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_mine_statements_parse() {
        let cfg = GenConfig::default();
        let mut mines = 0;
        for i in 0..40 {
            let case = gen_case(0xF0, i, &cfg);
            assert!(case.row_count() <= cfg.max_rows);
            for op in &case.ops {
                if let Op::Mine(text) = op {
                    parse_mine_rule(text).unwrap_or_else(|e| {
                        panic!("generated statement fails to parse: {e:?}\n{text}")
                    });
                    mines += 1;
                }
            }
        }
        assert!(mines > 20, "generator produced too few mine statements");
    }

    #[test]
    fn generated_cases_cover_statement_classes() {
        // Over many cases the grammar must hit clustering, mining
        // conditions, group HAVING, cross-schema heads, and all rerun
        // flavours: plain/tightened, loosened support, and a source
        // delta followed by the same statement.
        let cfg = GenConfig::default();
        let (mut cluster, mut mining, mut having, mut cross, mut rerun) = (0, 0, 0, 0, 0);
        let (mut loosened, mut delta) = (0, 0);
        let support_of = |s: &str| {
            s.split("SUPPORT: ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse::<f64>()
                .unwrap()
        };
        for i in 0..200 {
            let case = gen_case(1, i, &cfg);
            let mut prev: Option<&str> = None;
            let mut dml_between = false;
            for op in &case.ops {
                match op {
                    Op::Mine(text) => {
                        if text.contains("CLUSTER BY") {
                            cluster += 1;
                        }
                        if text.contains("AS HEAD, SUPPORT") && text.contains("WHERE BODY.") {
                            mining += 1;
                        }
                        if text.contains("HAVING COUNT") {
                            having += 1;
                        }
                        if text.contains("qty AS HEAD") || text.contains("qty AS BODY") {
                            cross += 1;
                        }
                        if let Some(p) = prev {
                            let stem = |s: &str| s.split(" EXTRACTING").next().unwrap().to_string();
                            if stem(p) == stem(text) {
                                rerun += 1;
                                if dml_between {
                                    delta += 1;
                                }
                                if support_of(text) < support_of(p) {
                                    loosened += 1;
                                }
                            }
                        }
                        prev = Some(text);
                        dml_between = false;
                    }
                    Op::Dml(_) => dml_between = true,
                    _ => {}
                }
            }
        }
        assert!(cluster > 10, "clustered statements: {cluster}");
        assert!(mining > 10, "mining conditions: {mining}");
        assert!(having > 10, "group HAVING: {having}");
        assert!(cross > 10, "cross-schema heads: {cross}");
        assert!(rerun > 10, "refinement reruns: {rerun}");
        assert!(loosened > 10, "loosened-threshold reruns: {loosened}");
        assert!(delta > 10, "delta-then-repeat mines: {delta}");
    }

    #[test]
    fn purchase_db_builder_round_trips() {
        let mut rng = Rng::seed_from_u64(5);
        let purchases = random_purchases(&mut rng);
        let mut db = build_purchase_db(&purchases);
        let n: usize = purchases.iter().map(Vec::len).sum();
        let rs = db.query("SELECT COUNT(*) FROM Purchase").unwrap();
        assert_eq!(rs.scalar().unwrap().to_string(), n.to_string());
    }

    #[test]
    fn simple_input_spans_densities() {
        let sparse = random_simple_input(60, 120, 0.06, 1);
        let dense = random_simple_input(12, 18, 0.5, 1);
        assert_eq!(sparse.groups.len(), 60);
        assert_eq!(dense.groups.len(), 12);
        assert!(sparse.min_groups >= 2 && dense.min_groups >= 2);
    }
}

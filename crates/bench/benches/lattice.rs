//! Experiments E5 and E6.
//!
//! E5 — the lattice under min-parent expansion (§4.3.2: "the efficiency
//! of the algorithm is maximized if, at each step, we start from the set
//! with lower cardinality").
//!
//! E6 — generality overhead: the same simple-class statement through the
//! simple algorithm pool vs forced through the general lattice.

use minerule::MineRuleEngine;
use tcdm_bench::bench::Group;
use tcdm_bench::{quest_db, retail_db};

fn wide_head_statement(support: f64) -> String {
    // 1..3 heads make the head dimension of the lattice meaningful.
    format!(
        "MINE RULE Wide AS \
         SELECT DISTINCT 1..n item AS BODY, 1..3 item AS HEAD, SUPPORT, CONFIDENCE \
         WHERE BODY.price >= 0 \
         FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.05"
    )
}

fn e5_expansion_order() {
    let mut group = Group::new("E5_lattice_order");
    group.bench_batched(
        "min_parent/250",
        || retail_db(250, 13),
        |mut db| {
            MineRuleEngine::new()
                .execute(&mut db, &wide_head_statement(0.08))
                .unwrap()
        },
    );
}

fn e6_simple_vs_general() {
    let mut group = Group::new("E6_generality_overhead");
    let statement = "MINE RULE Both AS \
        SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Baskets GROUP BY tr \
        EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.3";
    group.bench_batched(
        "simple_core",
        || quest_db(800, 17),
        |mut db| MineRuleEngine::new().execute(&mut db, statement).unwrap(),
    );
    group.bench_batched(
        "forced_general_lattice",
        || quest_db(800, 17),
        |mut db| {
            let mut engine = MineRuleEngine::new();
            engine.core.force_general = true;
            engine.execute(&mut db, statement).unwrap()
        },
    );
}

fn main() {
    e5_expansion_order();
    e6_simple_vs_general();
}

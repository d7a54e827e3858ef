//! Experiment E8 — postprocessing (§4.4): cost of storing encoded rules
//! and decoding them into the user tables, as a function of the number of
//! rules produced (driven by the support threshold). Two arms per point:
//! the written route (store + the `P1`–`P3` decode joins, the reference
//! path) and `decode_rules`, the single fused call `execute` makes — which
//! also hands back the decoded rules the written route would still have
//! to read.

use minerule::postprocess::{decode_rules, postprocess, store_encoded_rules};
use minerule::preprocess::preprocess;
use minerule::{core_op, encoded, parse_mine_rule, translate};
use tcdm_bench::bench::Group;
use tcdm_bench::{quest_db, simple_statement};

fn e8_decode_cost() {
    let mut group = Group::new("E8_postprocess");
    for &support in &[0.05f64, 0.02, 0.01] {
        // Fixed pipeline state: preprocessing + core done once, then the
        // benchmark measures store + decode only.
        let statement = simple_statement(support, 0.1);
        let setup = || {
            let mut db = quest_db(800, 29);
            let stmt = parse_mine_rule(&statement).unwrap();
            let translation = translate(&stmt, db.catalog()).unwrap();
            preprocess(&mut db, &translation).unwrap();
            let input = encoded::read_encoded(&mut db, &translation).unwrap();
            let out = core_op::run_core(&input, &core_op::CoreOptions::default()).unwrap();
            (db, translation, out.rules)
        };
        let (_, _, rules) = setup();
        group.bench_batched(
            &format!("written/s={support}_rules={}", rules.len()),
            setup,
            |(mut db, translation, rules)| {
                store_encoded_rules(&mut db, &translation, &rules).unwrap();
                postprocess(&mut db, &translation).unwrap();
            },
        );
        group.bench_batched(
            &format!("fused/s={support}_rules={}", rules.len()),
            setup,
            |(mut db, translation, rules)| decode_rules(&mut db, &translation, rules).unwrap(),
        );
    }
}

fn main() {
    e8_decode_cost();
}

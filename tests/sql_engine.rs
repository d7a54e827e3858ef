//! Integration tests of the relational substrate itself: the SQL92
//! surface the mining kernel relies on, plus the extensions (set
//! operations, explicit joins, CAST, string functions).

use relational::{Database, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (id INT, name VARCHAR, dept INT, salary FLOAT)")
        .unwrap();
    db.execute(
        "INSERT INTO emp VALUES \
         (1, 'ada', 10, 120.0), (2, 'bob', 10, 90.0), \
         (3, 'cleo', 20, 150.0), (4, 'dan', 30, 80.0)",
    )
    .unwrap();
    db.execute("CREATE TABLE dept (id INT, dname VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO dept VALUES (10, 'eng'), (20, 'sales')")
        .unwrap();
    db
}

#[test]
fn union_dedups_union_all_keeps() {
    let mut d = db();
    let rs = d
        .query("SELECT dept FROM emp UNION SELECT dept FROM emp ORDER BY dept")
        .unwrap();
    assert_eq!(rs.len(), 3);
    let rs = d
        .query("SELECT dept FROM emp UNION ALL SELECT dept FROM emp")
        .unwrap();
    assert_eq!(rs.len(), 8);
}

#[test]
fn intersect_and_except() {
    let mut d = db();
    let rs = d
        .query("SELECT id FROM emp INTERSECT SELECT id FROM dept")
        .unwrap();
    assert_eq!(rs.len(), 0); // emp ids are 1..4, dept ids 10/20
    let rs = d
        .query("SELECT dept FROM emp INTERSECT SELECT id FROM dept ORDER BY dept")
        .unwrap();
    assert_eq!(rs.len(), 2);
    let rs = d
        .query("SELECT dept FROM emp EXCEPT SELECT id FROM dept")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Int(30));
}

#[test]
fn set_op_arity_mismatch_rejected() {
    let mut d = db();
    assert!(d
        .query("SELECT id, name FROM emp UNION SELECT id FROM dept")
        .is_err());
}

#[test]
fn explicit_inner_join() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.id \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows()[0][0], Value::Str("ada".into()));
    assert_eq!(rs.rows()[0][1], Value::Str("eng".into()));
}

#[test]
fn left_outer_join_preserves_unmatched() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT name, dname FROM emp LEFT JOIN dept ON emp.dept = dept.id \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    let dan = rs
        .rows()
        .iter()
        .find(|r| r[0] == Value::Str("dan".into()))
        .unwrap();
    assert_eq!(dan[1], Value::Null, "dept 30 has no match");
}

#[test]
fn join_chain_three_tables() {
    let mut d = db();
    d.execute("CREATE TABLE loc (dept VARCHAR, city VARCHAR)")
        .unwrap();
    d.execute("INSERT INTO loc VALUES ('eng', 'torino'), ('sales', 'milano')")
        .unwrap();
    let rs = d
        .query(
            "SELECT name, city FROM emp \
             JOIN dept ON emp.dept = dept.id \
             JOIN loc ON dept.dname = loc.dept ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows()[2][1], Value::Str("milano".into()));
}

#[test]
fn cross_join_is_cartesian() {
    let mut d = db();
    let rs = d.query("SELECT * FROM emp CROSS JOIN dept").unwrap();
    assert_eq!(rs.len(), 8);
}

#[test]
fn cast_conversions() {
    let mut d = db();
    let rs = d
        .query("SELECT CAST(salary AS INT), CAST(id AS VARCHAR), CAST('2001-02-03' AS DATE) FROM emp WHERE id = 1")
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Int(120));
    assert_eq!(rs.rows()[0][1], Value::Str("1".into()));
    assert_eq!(rs.rows()[0][2].to_string(), "2001-02-03");
    assert!(d.query("SELECT CAST('abc' AS INT) FROM emp").is_err());
}

#[test]
fn string_functions() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT SUBSTR(name, 1, 2), TRIM('  x  '), CONCAT(name, '-', dept), \
             REPLACE(name, 'a', 'o') FROM emp WHERE id = 1",
        )
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Str("ad".into()));
    assert_eq!(rs.rows()[0][1], Value::Str("x".into()));
    assert_eq!(rs.rows()[0][2], Value::Str("ada-10".into()));
    assert_eq!(rs.rows()[0][3], Value::Str("odo".into()));
}

#[test]
fn order_by_position_and_alias() {
    let mut d = db();
    let rs = d
        .query("SELECT name AS n, salary FROM emp ORDER BY 2 DESC LIMIT 1")
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Str("cleo".into()));
    let rs = d.query("SELECT name AS n FROM emp ORDER BY n").unwrap();
    assert_eq!(rs.rows()[0][0], Value::Str("ada".into()));
}

#[test]
fn aggregates_with_floats_and_groups() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT dept, AVG(salary) AS a, MIN(name) AS m FROM emp \
             GROUP BY dept HAVING COUNT(*) >= 1 ORDER BY dept",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows()[0][1], Value::Float(105.0));
    assert_eq!(rs.rows()[0][2], Value::Str("ada".into()));
}

#[test]
fn exists_and_not_exists() {
    let mut d = db();
    let rs = d
        .query("SELECT name FROM emp WHERE EXISTS (SELECT id FROM dept) ORDER BY name")
        .unwrap();
    assert_eq!(rs.len(), 4);
    let rs = d
        .query("SELECT name FROM emp WHERE NOT EXISTS (SELECT id FROM dept WHERE id = 99)")
        .unwrap();
    assert_eq!(rs.len(), 4);
}

#[test]
fn case_expression_in_projection() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT name, CASE WHEN salary >= 100 THEN 'senior' ELSE 'junior' END AS band \
             FROM emp ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.rows()[0][1], Value::Str("senior".into()));
    assert_eq!(rs.rows()[1][1], Value::Str("junior".into()));
}

#[test]
fn display_roundtrip_for_new_syntax() {
    use relational::sql::parser::parse_statement;
    for sql in [
        "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 LIMIT 3",
        "SELECT a FROM t LEFT JOIN u ON t.x = u.y WHERE a > 1",
        "SELECT CAST(a AS FLOAT) FROM t INTERSECT SELECT b FROM u",
        "SELECT x FROM t EXCEPT SELECT y FROM u",
    ] {
        let s1 = parse_statement(sql).unwrap();
        let s2 = parse_statement(&s1.to_string()).unwrap();
        assert_eq!(s1, s2, "{sql}");
    }
}

#[test]
fn update_and_delete_with_subqueries() {
    let mut d = db();
    d.execute("UPDATE emp SET salary = salary * 2 WHERE dept = (SELECT MIN(id) FROM dept)")
        .unwrap();
    let rs = d.query("SELECT salary FROM emp WHERE id = 1").unwrap();
    assert_eq!(rs.rows()[0][0], Value::Float(240.0));
    d.execute("DELETE FROM emp WHERE dept IN (SELECT id FROM dept)")
        .unwrap();
    assert_eq!(
        d.query("SELECT COUNT(*) FROM emp").unwrap().scalar(),
        Some(&Value::Int(1))
    );
}

/// A multi-row INSERT is all-or-nothing on both backends: a bad row
/// anywhere in the list adds no row, bumps no version and — under the
/// paged store — reaches the WAL neither then nor at the next statement.
#[test]
fn multi_row_insert_is_atomic_on_both_backends() {
    let dir = std::env::temp_dir().join(format!("tcdm_sql_atomic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for paged in [false, true] {
        let mut d = if paged {
            Database::open_paged(&dir).unwrap()
        } else {
            Database::new()
        };
        d.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        d.execute("INSERT INTO t VALUES (0, 'kept')").unwrap();
        let version = d.catalog().table("t").unwrap().version();
        let wal = d.stats().storage_wal_appends;

        let err = d.execute("INSERT INTO t VALUES (1, 'a'), ('x', 'b')");
        assert!(err.is_err(), "row 2 does not fit (INT, VARCHAR)");
        let err = d.execute("INSERT INTO t VALUES (1, 'a'), (2)");
        assert!(err.is_err(), "row 2 has the wrong arity");

        let t = d.catalog().table("t").unwrap();
        assert_eq!(
            t.row_count(),
            1,
            "paged={paged}: no row of a failed list stays"
        );
        assert_eq!(t.version(), version, "paged={paged}: no version bump");
        // The next statement's sync finds nothing to mirror.
        let rs = d.query("SELECT a FROM t").unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Int(0)]]);
        assert_eq!(d.stats().storage_wal_appends, wal, "paged={paged}");
        assert_eq!(paged, wal > 0, "the paged leg really logs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A DELETE that matches nothing is a no-op on both backends: no version
/// bump (caches stay valid), no change record, and — under
/// the paged store — nothing for the next sync to log.
#[test]
fn delete_matching_nothing_is_a_no_op_on_both_backends() {
    let dir = std::env::temp_dir().join(format!("tcdm_sql_noop_delete_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for paged in [false, true] {
        let mut d = if paged {
            Database::open_paged(&dir).unwrap()
        } else {
            Database::new()
        };
        d.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        d.execute("INSERT INTO t VALUES (0, 'kept'), (1, 'kept')")
            .unwrap();
        let version = d.catalog().table("t").unwrap().version();
        let wal = d.stats().storage_wal_appends;

        for sql in [
            "DELETE FROM t WHERE a = 7",
            "DELETE FROM t WHERE a IN (SELECT a FROM t WHERE b = 'gone')",
        ] {
            let outcome = d.execute(sql).unwrap();
            assert_eq!(outcome.rows_affected, 0, "paged={paged}: {sql}");
        }
        let t = d.catalog().table("t").unwrap();
        assert_eq!(t.version(), version, "paged={paged}: no version bump");
        assert_eq!(
            t.changes_since(version),
            Some(relational::TableDelta::default()),
            "paged={paged}: nothing logged"
        );
        // The next statement's sync finds nothing to mirror.
        assert_eq!(d.query("SELECT a FROM t").unwrap().len(), 2);
        assert_eq!(d.stats().storage_wal_appends, wal, "paged={paged}");
        assert_eq!(paged, wal > 0, "the paged leg really logs");

        // A DELETE that does match still stamps and logs.
        assert_eq!(
            d.execute("DELETE FROM t WHERE a = 1")
                .unwrap()
                .rows_affected,
            1
        );
        let t = d.catalog().table("t").unwrap();
        assert_ne!(t.version(), version, "paged={paged}");
        assert_eq!(t.changes_since(version).unwrap().deleted.len(), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// DELETE and UPDATE evaluate over one snapshot of the table's rows, with
/// the database as their context: a predicate or SET expression written
/// with a subquery that yields the same value leaves the same rows, the
/// same change log and the same first error as one written without.
#[test]
fn dml_over_stored_rows_and_over_a_snapshot_agree() {
    let plain = [
        "UPDATE emp SET salary = salary + :bonus, dept = dept + 1 WHERE dept = 10",
        "DELETE FROM emp WHERE salary > :cap",
    ];
    let reaching = [
        "UPDATE emp SET salary = salary + :bonus, dept = dept + 1 \
         WHERE dept = (SELECT MIN(id) FROM dept)",
        "DELETE FROM emp WHERE salary > (SELECT MAX(:cap) FROM dept)",
    ];
    let run = |script: [&str; 2]| {
        let mut d = db();
        d.set_var("bonus", Value::Float(5.0));
        d.set_var("cap", Value::Float(130.0));
        let v0 = d.catalog().table("emp").unwrap().version();
        let affected: Vec<usize> = script
            .iter()
            .map(|sql| d.execute(sql).unwrap().rows_affected)
            .collect();
        let emp = d.catalog().table("emp").unwrap();
        (
            affected,
            emp.rows().to_vec(),
            emp.changes_since(v0).unwrap(),
        )
    };
    let (affected, rows, delta) = run(plain);
    assert_eq!(affected, vec![2, 1]);
    assert_eq!(rows.len(), 3);
    assert_eq!((delta.inserted.len(), delta.deleted.len()), (2, 3));
    assert_eq!(run(reaching), (affected, rows, delta));

    // Errors surface identically, and leave the table untouched.
    for sql in [
        "DELETE FROM emp WHERE salary / 0 > 1",
        "UPDATE emp SET salary = :unbound",
        "UPDATE emp SET nope = 1",
        "DELETE FROM emp WHERE name > 1",
    ] {
        let mut d = db();
        let version = d.catalog().table("emp").unwrap().version();
        assert!(d.execute(sql).is_err(), "{sql}");
        assert_eq!(
            d.catalog().table("emp").unwrap().version(),
            version,
            "{sql}"
        );
    }
}

#[test]
fn grouped_not_in_with_a_null_item_is_null() {
    // `x NOT IN (5, NULL)` is NULL unless x = 5: the grouped evaluator
    // remembers the NULL item exactly as the per-row one does.
    let mut d = db();
    let rs = d
        .query("SELECT COUNT(*) FROM emp HAVING COUNT(*) NOT IN (5, NULL)")
        .unwrap();
    assert_eq!(rs.len(), 0);
    let rs = d
        .query("SELECT COUNT(*) FROM emp HAVING COUNT(*) IN (5, NULL)")
        .unwrap();
    assert_eq!(rs.len(), 0);
    let rs = d
        .query("SELECT COUNT(*) FROM emp HAVING COUNT(*) IN (4, NULL)")
        .unwrap();
    assert_eq!(rs.len(), 1);
    let rs = d
        .query("SELECT COUNT(*) NOT IN (5, NULL), COUNT(*) NOT IN (4, NULL) FROM emp")
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Null);
    assert_eq!(rs.rows()[0][1], Value::Bool(false));
    let rs = d
        .query("SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) NOT IN (2, NULL)")
        .unwrap();
    assert_eq!(rs.len(), 0);
    // The per-row form agrees.
    let rs = d
        .query("SELECT id FROM emp WHERE id NOT IN (5, NULL)")
        .unwrap();
    assert_eq!(rs.len(), 0);
}

//! Integers past 2^53 are distinct values: comparing them through `f64`
//! merges neighbours, which a key column, an equality filter, `DISTINCT`
//! and a hash join would each show differently.

use fedlake_relational::{Database, Value};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::{BuildHasher, RandomState};

/// 2^53 and its successor: the first pair of `i64`s with one `f64` image.
const EVEN: i64 = 9_007_199_254_740_992;
const ODD: i64 = EVEN + 1;

/// `t(id INT, v TEXT)` without a key, holding both neighbours.
fn keyless() -> Database {
    let mut db = Database::new("big");
    db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
    db.execute(&format!("INSERT INTO t VALUES ({EVEN}, 'even'), ({ODD}, 'odd')")).unwrap();
    db
}

#[test]
fn neighbours_past_2_53_are_two_primary_keys() {
    let mut db = Database::new("big");
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
    db.execute(&format!("INSERT INTO t VALUES ({EVEN}, 'even')")).unwrap();
    db.execute(&format!("INSERT INTO t VALUES ({ODD}, 'odd')"))
        .expect("a different integer is a different key");
    // The point lookup goes through the key's index.
    let rs = db.query(&format!("SELECT v FROM t WHERE id = {ODD}")).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::text("odd")]]);
    assert_eq!(rs.cost.index_probes, 1);
    assert!(db.execute(&format!("INSERT INTO t VALUES ({ODD}, 'again')")).is_err());
}

#[test]
fn an_equality_filter_returns_the_integer_asked_for() {
    let db = keyless();
    let rs = db.query(&format!("SELECT v FROM t WHERE id = {ODD}")).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::text("odd")]]);
    let rs = db.query(&format!("SELECT v FROM t WHERE id > {EVEN}")).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::text("odd")]]);
    let rs = db.query(&format!("SELECT v FROM t WHERE id IN ({EVEN})")).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::text("even")]]);
}

#[test]
fn distinct_keeps_both_neighbours() {
    let rs = keyless().query("SELECT DISTINCT id FROM t ORDER BY id").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(EVEN)], vec![Value::Int(ODD)]]);
}

#[test]
fn a_hash_join_pairs_each_integer_with_itself_only() {
    let mut db = keyless();
    db.execute("CREATE TABLE u (id INT, w TEXT)").unwrap();
    db.execute(&format!("INSERT INTO u VALUES ({ODD}, 'right odd'), ({EVEN}, 'right even')"))
        .unwrap();
    let sql = "SELECT t.v, u.w FROM t JOIN u ON t.id = u.id ORDER BY t.id";
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
    assert!(plan.contains("HashJoin"), "no index on either key: {plan}");
    let rs = db.query(sql).unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::text("even"), Value::text("right even")],
            vec![Value::text("odd"), Value::text("right odd")],
        ]
    );
}

/// The order stays total and transitive across the two numeric types, an
/// integer still equals the double that is exactly it, and equal values
/// hash equally.
#[test]
fn the_numeric_order_is_exact_total_and_hash_consistent() {
    let hash = RandomState::new();
    let two_53 = Value::Double(EVEN as f64);
    assert_ne!(Value::Int(EVEN), Value::Int(ODD));
    assert_eq!(Value::Int(EVEN).sql_cmp(&Value::Int(ODD)), Some(Ordering::Less));
    // ODD has no double of its own: it sits strictly between two of them.
    assert_eq!(Value::Int(EVEN), two_53);
    assert_eq!(hash.hash_one(Value::Int(EVEN)), hash.hash_one(&two_53));
    assert_eq!(Value::Int(ODD).cmp(&two_53), Ordering::Greater);
    assert_eq!(two_53.sql_cmp(&Value::Int(ODD)), Some(Ordering::Less));
    assert_eq!(Value::Int(ODD).cmp(&Value::Double((EVEN + 2) as f64)), Ordering::Less);
    // The ends of the range: 2^63 is a double and no i64.
    let two_63 = Value::Double(9_223_372_036_854_775_808.0);
    assert_eq!(Value::Int(i64::MAX).cmp(&two_63), Ordering::Less);
    assert_eq!(Value::Int(i64::MIN), Value::Double(-9_223_372_036_854_775_808.0));
    assert_eq!(Value::Int(i64::MAX).sql_cmp(&Value::Double(f64::NAN)), None);

    assert_eq!(Value::Int(1), Value::Double(1.0));
    assert_eq!(hash.hash_one(Value::Int(1)), hash.hash_one(Value::Double(1.0)));
    assert_eq!(Value::Int(2).sql_cmp(&Value::Double(2.5)), Some(Ordering::Less));
    assert_eq!(Value::Int(-2).sql_cmp(&Value::Double(-2.5)), Some(Ordering::Greater));
    assert_eq!(Value::Int(0).sql_cmp(&Value::Double(-0.0)), Some(Ordering::Equal));
    // The index order splits the two zeros as `total_cmp` does.
    assert_eq!(Value::Int(0).cmp(&Value::Double(-0.0)), Ordering::Greater);
    assert_eq!(Value::Int(i64::MIN).cmp(&Value::Double(-f64::NAN)), Ordering::Greater);

    let mut sorted = vec![
        two_63.clone(),
        Value::Int(ODD),
        Value::Double(f64::INFINITY),
        Value::Int(i64::MAX),
        Value::Double(-0.5),
        two_53.clone(),
        Value::Int(0),
        Value::Double((EVEN + 2) as f64),
        Value::Int(-1),
        Value::Double(f64::NEG_INFINITY),
    ];
    sorted.sort();
    let ascending = vec![
        Value::Double(f64::NEG_INFINITY),
        Value::Int(-1),
        Value::Double(-0.5),
        Value::Int(0),
        two_53,
        Value::Int(ODD),
        Value::Double((EVEN + 2) as f64),
        Value::Int(i64::MAX),
        two_63,
        Value::Double(f64::INFINITY),
    ];
    // `Vec<Value>: PartialEq` would call 2^53 + 1 equal to a neighbour at
    // the parent; the positions of the exact integers cannot be confused.
    let shown = |vs: &[Value]| vs.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>();
    assert_eq!(shown(&sorted), shown(&ascending));
    let distinct: HashSet<&Value> = ascending.iter().collect();
    assert_eq!(distinct.len(), ascending.len());
}

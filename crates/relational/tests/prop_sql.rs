//! Randomized tests for the relational engine: whatever access paths and
//! join algorithms the optimizer picks, the answers must equal a naive
//! reference evaluation, and indexes must never change results. Every
//! statement generated here also runs through both entry points — the
//! owned `query` and the borrowed `query_borrowed` — which must agree cell
//! for cell, in order, and on the `CostStats`.
//! Deterministically seeded via the in-repo PRNG.

use fedlake_prng::Prng;
use fedlake_relational::sql::ast::{Operand, Predicate, SqlCmpOp};
use fedlake_relational::{Column, DataType, Database, ResultSet, TableSchema, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A small value universe so predicates hit often.
fn arb_value(rng: &mut Prng) -> Value {
    match rng.gen_range(0..7) {
        0..=2 => Value::Int(rng.gen_range(0i64..20)),
        3 | 4 => Value::text(format!("v{}", rng.gen_range(0u8..8))),
        5 => Value::Null,
        _ => Value::Double(rng.gen_range(0u8..10) as f64 / 2.0),
    }
}

fn arb_non_null(rng: &mut Prng) -> Value {
    loop {
        let v = arb_value(rng);
        if !v.is_null() {
            return v;
        }
    }
}

fn arb_rows(rng: &mut Prng) -> Vec<(i64, Value, Value)> {
    let n = rng.gen_range(0usize..50);
    (0..n)
        .map(|_| (rng.gen_range(0i64..1000), arb_value(rng), arb_value(rng)))
        .collect()
}

/// The doubles where an index's total order and `sql_cmp` part: both zeros
/// (one value to SQL, two keys to the order), NaN of either sign (no value
/// to SQL, the order files it past every number) and the infinities.
const DOUBLES: [f64; 8] = [-0.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0, 1.5];

/// A stored double, or NULL.
fn arb_double(rng: &mut Prng) -> Value {
    match rng.gen_range(0..=DOUBLES.len()) {
        i if i < DOUBLES.len() => Value::Double(DOUBLES[i]),
        _ => Value::Null,
    }
}

/// A predicate on the DOUBLE column `d`, its constants the finite doubles
/// and zero as an integer.
fn arb_double_pred(rng: &mut Prng) -> Pred {
    const OPS: [SqlCmpOp; 6] =
        [SqlCmpOp::Eq, SqlCmpOp::Ne, SqlCmpOp::Lt, SqlCmpOp::Le, SqlCmpOp::Gt, SqlCmpOp::Ge];
    let constants = [0.0, -0.0, 1.0, 1.5, 2.0].map(Value::Double);
    let constant = |rng: &mut Prng| match rng.gen_range(0..=constants.len()) {
        i if i < constants.len() => constants[i].clone(),
        _ => Value::Int(0),
    };
    match rng.gen_range(0..4) {
        0..=2 => Pred::Cmp(OPS[rng.gen_range(0..OPS.len())], constant(rng)),
        _ => Pred::In(vec![constant(rng), constant(rng)]),
    }
}

#[derive(Debug, Clone)]
enum Pred {
    Cmp(SqlCmpOp, Value),
    Like(String),
    IsNull(bool),
    In(Vec<Value>),
}

fn arb_pred(rng: &mut Prng) -> (usize, Pred) {
    const OPS: [SqlCmpOp; 6] = [
        SqlCmpOp::Eq,
        SqlCmpOp::Ne,
        SqlCmpOp::Lt,
        SqlCmpOp::Le,
        SqlCmpOp::Gt,
        SqlCmpOp::Ge,
    ];
    let pred = match rng.gen_range(0..7) {
        0..=3 => Pred::Cmp(OPS[rng.gen_range(0..OPS.len())], arb_non_null(rng)),
        4 => {
            const PAT: &[char] = &['v', '%', '_', '0', '9'];
            let len = rng.gen_range(0usize..4);
            Pred::Like((0..len).map(|_| PAT[rng.gen_range(0..PAT.len())]).collect())
        }
        5 => Pred::IsNull(rng.gen_bool(0.5)),
        _ => {
            let n = rng.gen_range(1usize..4);
            Pred::In((0..n).map(|_| arb_non_null(rng)).collect())
        }
    };
    (rng.gen_range(1usize..3), pred)
}

fn build_db(rows: &[(i64, Value, Value)], with_indexes: bool) -> Database {
    build_db_with(rows, &[], with_indexes)
}

/// `t(id, a, b)`, and the DOUBLE column `d` holding `doubles` (row by row,
/// NULL past its end) when that is not empty; indexed: on `a`, and on `d`.
fn build_db_with(rows: &[(i64, Value, Value)], doubles: &[Value], with_indexes: bool) -> Database {
    let mut db = Database::new("prop");
    let mut columns = vec![
        Column::not_null("id", DataType::Int),
        Column::new("a", DataType::Text),
        Column::new("b", DataType::Text),
    ];
    if !doubles.is_empty() {
        columns.push(Column::new("d", DataType::Double));
    }
    db.create_table(TableSchema::new("t", columns).with_primary_key(&["id"])).unwrap();
    let mut seen = BTreeSet::new();
    for (n, (id, a, b)) in rows.iter().enumerate() {
        if !seen.insert(*id) {
            continue; // PK duplicates are skipped, mirroring upsert-free load
        }
        // The schema says TEXT for a/b; coerce non-text values to text so
        // inserts succeed while the value distribution stays interesting.
        let coerce = |v: &Value| match v {
            Value::Null => Value::Null,
            Value::Text(_) => v.clone(),
            other => Value::text(other.to_string()),
        };
        let mut row = vec![Value::Int(*id), coerce(a), coerce(b)];
        if !doubles.is_empty() {
            row.push(doubles.get(n).cloned().unwrap_or(Value::Null));
        }
        db.insert_row("t", row).unwrap();
    }
    if with_indexes {
        db.create_index("t", "idx_a", &["a".to_string()], false).unwrap();
        if !doubles.is_empty() {
            db.create_index("t", "idx_d", &["d".to_string()], false).unwrap();
        }
    }
    db
}

fn pred_to_ast(col: &str, p: &Pred) -> Predicate {
    use fedlake_relational::sql::ColumnRef;
    let c = ColumnRef::new(col);
    match p {
        Pred::Cmp(op, v) => Predicate::Compare {
            left: c,
            op: *op,
            right: Operand::Literal(v.clone()),
        },
        Pred::Like(pat) => Predicate::Like { col: c, pattern: pat.clone(), negated: false },
        Pred::IsNull(negated) => Predicate::IsNull { col: c, negated: *negated },
        Pred::In(values) => Predicate::InList { col: c, values: values.clone() },
    }
}

/// Reference semantics of a predicate on a value.
fn eval_ref(p: &Pred, v: &Value) -> bool {
    match p {
        Pred::Cmp(op, lit) => match v.sql_cmp(lit) {
            None => false,
            Some(ord) => match op {
                SqlCmpOp::Eq => ord == Ordering::Equal,
                SqlCmpOp::Ne => ord != Ordering::Equal,
                SqlCmpOp::Lt => ord == Ordering::Less,
                SqlCmpOp::Le => ord != Ordering::Greater,
                SqlCmpOp::Gt => ord == Ordering::Greater,
                SqlCmpOp::Ge => ord != Ordering::Less,
            },
        },
        Pred::Like(pat) => v.like(pat),
        Pred::IsNull(negated) => v.is_null() != *negated,
        Pred::In(values) => {
            !v.is_null() && values.iter().any(|w| v.sql_cmp(w) == Some(Ordering::Equal))
        }
    }
}

/// Runs the same statement on a database nobody has planned against yet
/// (table profiles not built), then twice more on the now-warm one: the
/// rows must come back in the same order with equal `CostStats`, and the
/// warm runs must read the very profiles the cold one left, not rebuild
/// them. The borrowed entry point must then hand out those very rows and
/// counters. Returns the cold run.
fn cold_then_warm(db: &Database, sql: &str) -> ResultSet {
    let run = |db: &Database| db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let profiles = |db: &Database| -> Vec<_> {
        db.table_names().into_iter().map(|t| db.table(t).unwrap().profile()).collect()
    };
    let cold = run(db);
    let built = profiles(db);
    for _ in 0..2 {
        let warm = run(db);
        assert_eq!(warm.rows, cold.rows, "row order differs between cold and warm statistics");
        assert_eq!(warm.cost, cold.cost, "CostStats differ between cold and warm statistics");
        assert_eq!(warm.columns, cold.columns);
    }
    for (before, after) in built.iter().zip(profiles(db)) {
        assert!(Arc::ptr_eq(before, &after), "a warm run rebuilt a table profile");
    }
    let borrowed = db.query_borrowed(sql).unwrap();
    let cells: Vec<Vec<&Value>> = borrowed.rows.rows().map(Iterator::collect).collect();
    let owned: Vec<Vec<&Value>> = cold.rows.iter().map(|row| row.iter().collect()).collect();
    assert_eq!(cells, owned, "{sql}: borrowed cells differ from the owned rows");
    assert_eq!(borrowed.cost, cold.cost, "{sql}: CostStats differ between the entry points");
    assert_eq!(borrowed.rows.len(), cold.rows.len());
    for (c, name) in cold.columns.iter().enumerate() {
        let column: Vec<&Value> = borrowed.rows.column(c).collect();
        let owned: Vec<&Value> = cold.rows.iter().map(|row| &row[c]).collect();
        assert_eq!(column, owned, "{sql}: column {name} read column-major");
    }
    cold
}

/// Executing a filtered SELECT must equal naive row filtering, with and
/// without a secondary index — on a TEXT column and on a DOUBLE one — and
/// the two engines must agree.
#[test]
fn select_matches_reference_and_indexes_do_not_change_answers() {
    let mut rng = Prng::seed_from_u64(0x59_1001);
    for _ in 0..96 {
        let rows = arb_rows(&mut rng);
        let doubles: Vec<Value> = (0..rows.len().max(1)).map(|_| arb_double(&mut rng)).collect();
        let n_preds = rng.gen_range(0usize..3);
        let preds: Vec<(usize, Pred)> = (0..n_preds)
            .map(|_| if rng.gen_bool(0.5) { (3, arb_double_pred(&mut rng)) } else { arb_pred(&mut rng) })
            .collect();
        let plain = build_db_with(&rows, &doubles, false);
        let indexed = build_db_with(&rows, &doubles, true);
        // The statement's text is the public AST's rendering of the
        // predicates.
        let mut sql = "SELECT id FROM t".to_string();
        for (n, (col_idx, p)) in preds.iter().enumerate() {
            let col = ["id", "a", "b", "d"][*col_idx];
            sql += &format!(" {} {}", if n == 0 { "WHERE" } else { "AND" }, pred_to_ast(col, p));
        }
        let r_plain = cold_then_warm(&plain, &sql);
        let r_indexed = cold_then_warm(&indexed, &sql);

        // Reference evaluation over the raw rows.
        let table = plain.table("t").unwrap();
        let expected: BTreeSet<i64> = table
            .iter()
            .filter(|(_, row)| {
                preds.iter().all(|(col_idx, p)| {
                    let v = &row[*col_idx];
                    eval_ref(p, v)
                })
            })
            .map(|(_, row)| row[0].as_i64().unwrap())
            .collect();

        let got_plain: BTreeSet<i64> =
            r_plain.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let got_indexed: BTreeSet<i64> =
            r_indexed.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got_plain, expected, "{sql}");
        assert_eq!(got_indexed, expected, "{sql}, indexed");
    }
}

/// Join answers are independent of which join algorithm the optimizer
/// picks (INLJ when indexed, hash otherwise), and both are SQL's `=`: on a
/// TEXT key, and on a DOUBLE key where the value total order and `sql_cmp`
/// part — −0.0 joins 0.0, NaN joins nothing, the infinities join
/// themselves.
#[test]
fn join_algorithms_agree() {
    let mut rng = Prng::seed_from_u64(0x59_1002);
    for _ in 0..96 {
        let rows = arb_rows(&mut rng);
        let mut seen = BTreeSet::new();
        let keys: Vec<(i64, Value, Value)> = rows
            .iter()
            .filter(|(id, _, _)| seen.insert(*id))
            .map(|(id, a, _)| {
                let k = match a {
                    Value::Null => Value::Null,
                    v => Value::text(v.to_string()),
                };
                (*id, k.clone(), k)
            })
            .collect();
        joins_agree("TEXT", &keys);
    }
    const KEYS: [f64; 6] = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5];
    let mut rng = Prng::seed_from_u64(0x59_1012);
    let mut key = move || match rng.gen_range(0..=KEYS.len()) {
        i if i < KEYS.len() => Value::Double(KEYS[i]),
        _ => Value::Null,
    };
    for n in 0..96 {
        let keys: Vec<(i64, Value, Value)> = (0..n % 24).map(|id| (id, key(), key())).collect();
        joins_agree("DOUBLE", &keys);
    }
}

/// `SELECT l.id, r.id FROM l JOIN r ON l.k = r.k` over `ty` keys, each
/// row of `keys` giving `l` the row (id, left key) and `r` the row (id + 1,
/// right key): hash-joined without an index on `r.k`, INLJ-joined with
/// one, both equal to the nested loop under `sql_cmp`.
fn joins_agree(ty: &str, keys: &[(i64, Value, Value)]) {
    let build = |with_fk_index: bool| {
        let mut db = Database::new("j");
        db.execute(&format!("CREATE TABLE l (id INT PRIMARY KEY, k {ty})")).unwrap();
        db.execute(&format!("CREATE TABLE r (id INT PRIMARY KEY, k {ty})")).unwrap();
        for (id, lk, rk) in keys {
            db.insert_row("l", vec![Value::Int(*id), lk.clone()]).unwrap();
            db.insert_row("r", vec![Value::Int(id + 1), rk.clone()]).unwrap();
        }
        if with_fk_index {
            db.create_index("r", "idx_rk", &["k".to_string()], false).unwrap();
        }
        db
    };
    let hash_db = build(false);
    let inlj_db = build(true);
    let sql = "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k";
    let to_set = |rs: &fedlake_relational::ResultSet| -> BTreeSet<(i64, i64)> {
        rs.rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect()
    };
    let a = cold_then_warm(&hash_db, sql);
    let b = cold_then_warm(&inlj_db, sql);
    // Both equal the naive nested loop over the base rows.
    let l = hash_db.table("l").unwrap();
    let r = hash_db.table("r").unwrap();
    let mut expected = BTreeSet::new();
    for (_, lrow) in l.iter() {
        for (_, rrow) in r.iter() {
            if lrow[1].sql_cmp(&rrow[1]) == Some(Ordering::Equal) {
                expected.insert((lrow[0].as_i64().unwrap(), rrow[0].as_i64().unwrap()));
            }
        }
    }
    assert_eq!(to_set(&a), expected, "{ty} hash join: {keys:?}");
    assert_eq!(to_set(&b), expected, "{ty} INLJ: {keys:?}");
    assert_eq!(a.rows.len(), b.rows.len(), "a join algorithm duplicated or dropped a pair");
}

/// ORDER BY produces a total, stable order consistent with the value
/// ordering, and LIMIT is a prefix of it.
#[test]
fn order_by_and_limit() {
    let mut rng = Prng::seed_from_u64(0x59_1003);
    for _ in 0..96 {
        let rows = arb_rows(&mut rng);
        let limit = rng.gen_range(0usize..20);
        let db = build_db(&rows, false);
        let all = cold_then_warm(&db, "SELECT id, a FROM t ORDER BY a, id");
        for w in all.rows.windows(2) {
            let ka = (&w[0][1], w[0][0].as_i64().unwrap());
            let kb = (&w[1][1], w[1][0].as_i64().unwrap());
            assert!(ka <= kb, "rows out of order: {ka:?} > {kb:?}");
        }
        let limited = cold_then_warm(
            &build_db(&rows, false),
            &format!("SELECT id, a FROM t ORDER BY a, id LIMIT {limit}"),
        );
        assert_eq!(&all.rows[..limit.min(all.rows.len())], &limited.rows[..]);
    }
}

/// `DISTINCT` keeps the first occurrence of each output row, in order —
/// over joins with NULL keys and residual two-table filters, sorted or not,
/// whichever join algorithm runs — and `LIMIT` is a prefix of that.
#[test]
fn distinct_over_joins_keeps_first_occurrences() {
    let mut rng = Prng::seed_from_u64(0x59_1004);
    let (mut duplicates, mut cut) = (0, 0);
    for _ in 0..96 {
        let rows = arb_rows(&mut rng);
        let with_indexes = rng.gen_bool(0.5);
        let columns = ["l.a", "l.a, r.a", "r.a, l.b, r.b"][rng.gen_range(0usize..3)];
        let mut tail = String::new();
        if rng.gen_bool(0.5) {
            // A second equality between joined aliases is a residual
            // `Filter` above the join; the other two filter a scan.
            tail += [" WHERE l.b = r.a", " WHERE r.a IS NOT NULL", " WHERE l.id >= 500"]
                [rng.gen_range(0usize..3)];
        }
        if rng.gen_bool(0.5) {
            tail += [" ORDER BY r.a, l.id", " ORDER BY l.b DESC, r.id"][rng.gen_range(0usize..2)];
        }
        let limit = rng.gen_range(0usize..12);
        let run = |select: &str, limit: &str| {
            let sql = format!("{select} {columns} FROM t l JOIN t r ON l.a = r.b{tail}{limit}");
            cold_then_warm(&build_db(&rows, with_indexes), &sql)
        };
        let every = run("SELECT", "");
        let distinct = run("SELECT DISTINCT", "");
        let limited = run("SELECT DISTINCT", &format!(" LIMIT {limit}"));

        let mut first_seen: Vec<&Vec<Value>> = Vec::new();
        for row in &every.rows {
            if !first_seen.contains(&row) {
                first_seen.push(row);
            }
        }
        let got: Vec<&Vec<Value>> = distinct.rows.iter().collect();
        assert_eq!(got, first_seen, "{columns}{tail}");
        assert_eq!(&distinct.rows[..limit.min(distinct.rows.len())], &limited.rows[..]);
        // Neither modifier does source work of its own.
        let work = |rs: &ResultSet| fedlake_relational::CostStats { rows_output: 0, ..rs.cost };
        assert_eq!(work(&distinct), work(&every));
        assert_eq!(work(&limited), work(&every));
        assert_eq!(limited.cost.rows_output, limited.rows.len() as u64);
        duplicates += every.rows.len() - distinct.rows.len();
        cut += distinct.rows.len() - limited.rows.len();
    }
    assert!(duplicates > 0 && cut > 0, "the generator exercised neither modifier");
}

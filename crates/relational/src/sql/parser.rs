//! Recursive-descent SQL parser.

use crate::error::SqlError;
use crate::schema::{Column, TableSchema};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, SqlToken};
use crate::value::{DataType, Value};

/// Parses one SQL statement.
pub fn parse(input: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_punct(";");
    match p.peek() {
        SqlToken::Eof => Ok(stmt),
        other => Err(SqlError::Parse(format!("trailing tokens: {other:?}"))),
    }
}

struct Parser {
    tokens: Vec<SqlToken>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &SqlToken {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> SqlToken {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), SqlToken::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), SqlError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            SqlToken::Word(w) => Ok(w.to_lowercase()),
            other => Err(SqlError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    /// A parenthesised, comma-separated identifier list: `(a, b)`.
    fn ident_list(&mut self) -> Result<Vec<String>, SqlError> {
        self.expect_punct("(")?;
        let mut out = vec![self.ident()?];
        while self.eat_punct(",") {
            out.push(self.ident()?);
        }
        self.expect_punct(")")?;
        Ok(out)
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        if self.eat_kw("EXPLAIN") {
            self.expect_kw("SELECT")?;
            return Ok(Statement::Explain(self.select()?));
        }
        if self.eat_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            let unique = self.eat_kw("UNIQUE");
            self.expect_kw("INDEX")?;
            return self.create_index(unique);
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            return self.insert();
        }
        Err(SqlError::Parse(format!("unsupported statement starting with {:?}", self.peek())))
    }

    fn create_table(&mut self) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut columns = Vec::new();
        let mut schema = TableSchema::new(name, Vec::new());
        loop {
            if self.peek().is_kw("PRIMARY") {
                self.bump();
                self.expect_kw("KEY")?;
                schema.primary_key = self.ident_list()?;
            } else if self.peek().is_kw("FOREIGN") {
                // Checked and dropped: no plan reads a foreign key.
                self.bump();
                self.expect_kw("KEY")?;
                self.ident_list()?;
                self.expect_kw("REFERENCES")?;
                self.ident()?;
                self.ident_list()?;
            } else {
                let col_name = self.ident()?;
                let dt = match self.bump() {
                    SqlToken::Word(w) => match w.to_uppercase().as_str() {
                        "INT" | "INTEGER" | "BIGINT" => DataType::Int,
                        "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" => DataType::Double,
                        "TEXT" | "VARCHAR" | "CHAR" | "STRING" => DataType::Text,
                        "BOOL" | "BOOLEAN" => DataType::Bool,
                        other => {
                            return Err(SqlError::Parse(format!("unknown type {other}")))
                        }
                    },
                    other => {
                        return Err(SqlError::Parse(format!("expected type, found {other:?}")))
                    }
                };
                // Optional (n) length spec, ignored.
                if self.eat_punct("(") {
                    self.bump();
                    self.expect_punct(")")?;
                }
                let mut col = Column::new(col_name, dt);
                loop {
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        col.not_null = true;
                    } else if self.peek().is_kw("PRIMARY") {
                        self.bump();
                        self.expect_kw("KEY")?;
                        col.not_null = true;
                        schema.primary_key = vec![col.name.clone()];
                    } else {
                        break;
                    }
                }
                columns.push(col);
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        schema.columns = columns;
        Ok(Statement::CreateTable(schema))
    }

    fn create_index(&mut self, unique: bool) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        let columns = self.ident_list()?;
        Ok(Statement::CreateIndex { name, table, columns, unique })
    }

    fn insert(&mut self) -> Result<Statement, SqlError> {
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            rows.push(row);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal(&mut self) -> Result<Value, SqlError> {
        match self.bump() {
            SqlToken::Int(i) => Ok(Value::Int(i)),
            SqlToken::Float(f) => Ok(Value::Double(f)),
            SqlToken::Str(s) => Ok(Value::Text(s)),
            SqlToken::Word(w) if w.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            SqlToken::Word(w) if w.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            SqlToken::Word(w) if w.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            other => Err(SqlError::Parse(format!("expected literal, found {other:?}"))),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, SqlError> {
        let first = self.ident()?;
        if self.eat_punct(".") {
            let col = self.ident()?;
            Ok(ColumnRef { table: Some(first), column: col })
        } else {
            Ok(ColumnRef { table: None, column: first })
        }
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        let distinct = self.eat_kw("DISTINCT");
        let mut projection = Vec::new();
        if self.eat_punct("*") {
            projection.push(SelectItem::Star);
        } else {
            loop {
                let col = self.column_ref()?;
                let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
                projection.push(SelectItem::Column(col, alias));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let inner = self.eat_kw("INNER");
            if !self.eat_kw("JOIN") {
                if inner {
                    return Err(SqlError::Parse("INNER must be followed by JOIN".into()));
                }
                break;
            }
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let left = self.column_ref()?;
            self.expect_punct("=")?;
            let right = self.column_ref()?;
            joins.push(JoinClause { table, left, right });
        }
        let mut predicates = Vec::new();
        if self.eat_kw("WHERE") {
            loop {
                predicates.push(self.predicate()?);
                if !self.eat_kw("AND") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let col = self.column_ref()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(SortKey { col, asc });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                SqlToken::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(SqlError::Parse(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt { distinct, projection, from, joins, predicates, order_by, limit })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let table = self.ident()?;
        // Optional alias: a bare word that is not a clause keyword.
        const CLAUSES: &[&str] = &[
            "JOIN", "INNER", "WHERE", "ORDER", "LIMIT", "ON", "AND", "AS",
        ];
        let alias = match self.peek() {
            SqlToken::Word(w) if !CLAUSES.iter().any(|c| w.eq_ignore_ascii_case(c)) => {
                let a = w.to_lowercase();
                self.bump();
                a
            }
            _ => {
                if self.eat_kw("AS") {
                    self.ident()?
                } else {
                    table.clone()
                }
            }
        };
        Ok(TableRef { table, alias })
    }

    fn predicate(&mut self) -> Result<Predicate, SqlError> {
        let left = self.column_ref()?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Predicate::IsNull { col: left, negated });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("LIKE") {
            match self.bump() {
                SqlToken::Str(pattern) => {
                    return Ok(Predicate::Like { col: left, pattern, negated })
                }
                other => {
                    return Err(SqlError::Parse(format!("LIKE expects string, found {other:?}")))
                }
            }
        }
        if negated {
            return Err(SqlError::Parse("NOT must be followed by LIKE".into()));
        }
        if self.eat_kw("IN") {
            self.expect_punct("(")?;
            let mut values = Vec::new();
            loop {
                values.push(self.literal()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            return Ok(Predicate::InList { col: left, values });
        }
        let op = match self.bump() {
            SqlToken::Punct("=") => SqlCmpOp::Eq,
            SqlToken::Punct("<>") => SqlCmpOp::Ne,
            SqlToken::Punct("<") => SqlCmpOp::Lt,
            SqlToken::Punct("<=") => SqlCmpOp::Le,
            SqlToken::Punct(">") => SqlCmpOp::Gt,
            SqlToken::Punct(">=") => SqlCmpOp::Ge,
            other => return Err(SqlError::Parse(format!("expected operator, found {other:?}"))),
        };
        let right = match self.peek() {
            SqlToken::Word(w)
                if !w.eq_ignore_ascii_case("NULL")
                    && !w.eq_ignore_ascii_case("TRUE")
                    && !w.eq_ignore_ascii_case("FALSE") =>
            {
                Operand::Column(self.column_ref()?)
            }
            _ => Operand::Literal(self.literal()?),
        };
        Ok(Predicate::Compare { left, op, right })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let stmt = parse(
            "CREATE TABLE drug (id TEXT PRIMARY KEY, name VARCHAR(255) NOT NULL, mass DOUBLE)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(s) => {
                assert_eq!(s.name, "drug");
                assert_eq!(s.arity(), 3);
                assert_eq!(s.primary_key, vec!["id"]);
                assert!(s.columns[1].not_null);
                assert_eq!(s.columns[2].data_type, DataType::Double);
            }
            other => panic!("expected CreateTable, got {other:?}"),
        }
    }

    #[test]
    fn parse_composite_pk_and_fk() {
        let stmt = parse(
            "CREATE TABLE gd (gene TEXT, disease TEXT, PRIMARY KEY (gene, disease), \
             FOREIGN KEY (gene) REFERENCES gene (id))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(s) => {
                assert_eq!(s.primary_key, vec!["gene", "disease"]);
                assert_eq!(s.columns.len(), 2);
            }
            other => panic!("expected CreateTable, got {other:?}"),
        }
        assert!(parse("CREATE TABLE gd (gene TEXT, FOREIGN KEY (gene) gene (id))").is_err());
        assert!(parse("CREATE TABLE gd (gene TEXT, FOREIGN KEY () REFERENCES gene (id))").is_err());
    }

    #[test]
    fn parse_create_index() {
        let stmt = parse("CREATE UNIQUE INDEX idx_name ON drug (name)").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateIndex {
                name: "idx_name".into(),
                table: "drug".into(),
                columns: vec!["name".into()],
                unique: true
            }
        );
    }

    #[test]
    fn parse_insert_multi_row() {
        let stmt = parse("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', 3.5)").unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][2], Value::Null);
                assert_eq!(rows[1][2], Value::Double(3.5));
            }
            other => panic!("expected Insert, got {other:?}"),
        }
    }

    #[test]
    fn parse_select_with_joins() {
        let stmt = parse(
            "SELECT g.id, d.name FROM gene g \
             JOIN gene_disease gd ON g.id = gd.gene \
             JOIN disease d ON gd.disease = d.id \
             WHERE g.species = 'Homo sapiens' AND d.class <> 'x' \
             ORDER BY d.name DESC LIMIT 10",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.from.alias, "g");
                assert_eq!(s.joins.len(), 2);
                assert_eq!(s.predicates.len(), 2);
                assert_eq!(s.order_by.len(), 1);
                assert!(!s.order_by[0].asc);
                assert_eq!(s.limit, Some(10));
            }
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parse_like_and_in() {
        let stmt = parse(
            "SELECT * FROM t WHERE name LIKE '%sapiens%' AND id IN (1, 2, 3) AND x IS NOT NULL",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.predicates.len(), 3);
                assert!(matches!(s.predicates[0], Predicate::Like { .. }));
                assert!(matches!(s.predicates[1], Predicate::InList { ref values, .. } if values.len() == 3));
                assert!(
                    matches!(s.predicates[2], Predicate::IsNull { negated: true, .. })
                );
            }
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parse_explain() {
        let stmt = parse("EXPLAIN SELECT * FROM t").unwrap();
        assert!(matches!(stmt, Statement::Explain(_)));
    }

    #[test]
    fn join_predicate_in_where() {
        let stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z = b.w").unwrap();
        match stmt {
            Statement::Select(s) => assert!(matches!(
                s.predicates[0],
                Predicate::Compare { op: SqlCmpOp::Eq, right: Operand::Column(_), .. }
            )),
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn alias_forms() {
        let s1 = parse("SELECT * FROM gene g").unwrap();
        let s2 = parse("SELECT * FROM gene AS g").unwrap();
        let s3 = parse("SELECT * FROM gene").unwrap();
        for (stmt, alias) in [(s1, "g"), (s2, "g"), (s3, "gene")] {
            match stmt {
                Statement::Select(s) => assert_eq!(s.from.alias, alias),
                other => panic!("expected Select, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("SELECT * FROM t garbage garbage").is_err());
    }

    #[test]
    fn semicolon_allowed() {
        assert!(parse("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn distinct_flag() {
        match parse("SELECT DISTINCT x FROM t").unwrap() {
            Statement::Select(s) => assert!(s.distinct),
            other => panic!("expected Select, got {other:?}"),
        }
    }
}

//! Abstract syntax for the SQL subset.

use crate::value::Datum;
use std::fmt;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    Insert(InsertStmt),
    Update(UpdateStmt),
    Delete(DeleteStmt),
}

/// `SELECT <projection> FROM <table> [JOIN ...] [WHERE ...]
///  [ORDER BY col [ASC|DESC]] [LIMIT n]`
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub table: String,
    pub join: Option<JoinClause>,
    pub projection: Projection,
    pub predicates: Vec<Predicate>,
    pub order_by: Option<OrderBy>,
    pub limit: Option<u64>,
}

/// `ORDER BY <col> [ASC|DESC]` (single key; NULLs sort first).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    pub col: ColRef,
    pub descending: bool,
}

/// `JOIN <table> ON <left col> = <right col>`
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub table: String,
    pub left: ColRef,
    pub right: ColRef,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*` — all columns (of both tables when joined).
    Star,
    /// Explicit column list.
    Columns(Vec<ColRef>),
    /// `COUNT(*)`.
    CountStar,
}

/// A possibly table-qualified column reference. The pseudo-column
/// `_version` resolves to the row's MVCC commit version.
#[derive(Debug, Clone, PartialEq)]
pub struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColRef {
    pub fn bare(column: &str) -> Self {
        ColRef {
            table: None,
            column: column.to_string(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate against an ordering result (SQL three-valued logic: an
    /// incomparable pair — e.g. anything with NULL — satisfies nothing).
    pub fn eval(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Some(Equal))
                | (CmpOp::Neq, Some(Less | Greater))
                | (CmpOp::Lt, Some(Less))
                | (CmpOp::Le, Some(Less | Equal))
                | (CmpOp::Gt, Some(Greater))
                | (CmpOp::Ge, Some(Greater | Equal))
        )
    }
}

/// A literal or a `?` parameter slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Datum(Datum),
    /// Index into the parameter vector supplied at execution.
    Param(usize),
}

impl Literal {
    /// Resolve against the parameter vector.
    pub fn resolve<'a>(&'a self, params: &'a [Datum]) -> Option<&'a Datum> {
        match self {
            Literal::Datum(d) => Some(d),
            Literal::Param(i) => params.get(*i),
        }
    }
}

/// `<col> <op> <literal>` — predicates are conjunctive (AND-ed).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub col: ColRef,
    pub op: CmpOp,
    pub value: Literal,
}

/// `INSERT INTO <table> VALUES (...)` or `REPLACE INTO ...` (upsert).
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    pub table: String,
    pub values: Vec<Literal>,
    /// True for `REPLACE INTO`: overwrite an existing row instead of
    /// failing with a duplicate-key error.
    pub replace: bool,
}

/// `UPDATE <table> SET col = lit [, ...] [WHERE ...]`
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub assignments: Vec<(String, Literal)>,
    pub predicates: Vec<Predicate>,
}

/// `DELETE FROM <table> [WHERE ...]`
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    pub predicates: Vec<Predicate>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn cmp_op_three_valued_logic() {
        assert!(CmpOp::Eq.eval(Some(Ordering::Equal)));
        assert!(!CmpOp::Eq.eval(None));
        assert!(!CmpOp::Neq.eval(None), "NULL != x is not true in SQL");
        assert!(CmpOp::Le.eval(Some(Ordering::Equal)));
        assert!(CmpOp::Ge.eval(Some(Ordering::Greater)));
        assert!(!CmpOp::Lt.eval(Some(Ordering::Greater)));
    }

    #[test]
    fn literal_resolution() {
        let params = vec![Datum::Int(7)];
        assert_eq!(
            Literal::Param(0).resolve(&params),
            Some(&Datum::Int(7))
        );
        assert_eq!(Literal::Param(1).resolve(&params), None);
        assert_eq!(
            Literal::Datum(Datum::Bool(true)).resolve(&[]),
            Some(&Datum::Bool(true))
        );
    }

    #[test]
    fn colref_display() {
        assert_eq!(ColRef::bare("id").to_string(), "id");
        let qualified = ColRef {
            table: Some("t".into()),
            column: "id".into(),
        };
        assert_eq!(qualified.to_string(), "t.id");
    }
}

//! Table schemas and the catalog.
//!
//! A schema names columns, gives them types, designates a primary key and
//! optional secondary indexes. The planner consults the catalog to choose
//! between point gets, index scans, and full scans — the distinction that
//! drives storage CPU cost.

use crate::error::{StoreError, StoreResult};
use crate::row::Row;
use crate::value::Datum;
use cachekit::FxHashMap;

/// Column types in the SQL subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Bool,
    Int,
    Float,
    Text,
    Bytes,
}

impl ColumnType {
    pub const fn name(self) -> &'static str {
        match self {
            ColumnType::Bool => "bool",
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Text => "text",
            ColumnType::Bytes => "bytes",
        }
    }

    /// Whether `datum` is admissible in a column of this type (NULL always is).
    pub fn admits(self, datum: &Datum) -> bool {
        matches!(
            (self, datum),
            (_, Datum::Null)
                | (ColumnType::Bool, Datum::Bool(_))
                | (ColumnType::Int, Datum::Int(_))
                | (ColumnType::Float, Datum::Float(_))
                | (ColumnType::Float, Datum::Int(_))
                | (ColumnType::Text, Datum::Text(_))
                | (ColumnType::Bytes, Datum::Bytes(_))
                | (ColumnType::Bytes, Datum::Payload { .. })
        )
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
}

impl ColumnDef {
    pub fn new(name: &str, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty,
        }
    }
}

/// A table schema: ordered columns, primary key, secondary indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Index into `columns` of the primary key (single-column PKs only —
    /// matches what the workloads need and keeps key encoding simple).
    pub primary_key: usize,
    /// Column indices with secondary indexes.
    pub indexes: Vec<usize>,
}

impl TableSchema {
    /// Build a schema. `primary_key` and `indexed` are column names.
    pub fn new(
        name: &str,
        columns: Vec<ColumnDef>,
        primary_key: &str,
        indexed: &[&str],
    ) -> StoreResult<Self> {
        let find = |col: &str| -> StoreResult<usize> {
            columns
                .iter()
                .position(|c| c.name == col)
                .ok_or_else(|| StoreError::UnknownColumn {
                    table: name.to_string(),
                    column: col.to_string(),
                })
        };
        let pk = find(primary_key)?;
        let mut indexes = Vec::new();
        for col in indexed {
            let idx = find(col)?;
            if idx != pk && !indexes.contains(&idx) {
                indexes.push(idx);
            }
        }
        Ok(TableSchema {
            name: name.to_string(),
            columns,
            primary_key: pk,
            indexes,
        })
    }

    pub fn column_index(&self, name: &str) -> StoreResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StoreError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    pub fn is_indexed(&self, column: usize) -> bool {
        column == self.primary_key || self.indexes.contains(&column)
    }

    /// Validate a row against the schema (arity and types).
    pub fn validate(&self, row: &Row) -> StoreResult<()> {
        if row.len() != self.columns.len() {
            return Err(StoreError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, datum) in self.columns.iter().zip(row.0.iter()) {
            if !col.ty.admits(datum) {
                return Err(StoreError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.name(),
                });
            }
        }
        let pk = &row.0[self.primary_key];
        if pk.is_null() {
            return Err(StoreError::TypeMismatch {
                column: self.columns[self.primary_key].name.clone(),
                expected: "non-null primary key",
            });
        }
        Ok(())
    }

    /// The primary key datum of a row.
    pub fn pk_of<'r>(&self, row: &'r Row) -> &'r Datum {
        &row.0[self.primary_key]
    }
}

/// All table schemas in a database, looked up by name on every statement
/// (FxHash: a few table names need no SipHash).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: FxHashMap<String, TableSchema>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, schema: TableSchema) {
        self.tables.insert(schema.name.clone(), schema);
    }

    pub fn get(&self, table: &str) -> StoreResult<&TableSchema> {
        self.tables
            .get(table)
            .ok_or_else(|| StoreError::UnknownTable(table.to_string()))
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "users",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("score", ColumnType::Float),
            ],
            "id",
            &["name"],
        )
        .unwrap()
    }

    #[test]
    fn schema_resolves_pk_and_indexes() {
        let s = schema();
        assert_eq!(s.primary_key, 0);
        assert_eq!(s.indexes, vec![1]);
        assert!(s.is_indexed(0));
        assert!(s.is_indexed(1));
        assert!(!s.is_indexed(2));
    }

    #[test]
    fn unknown_pk_column_is_an_error() {
        let err = TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColumnType::Int)],
            "nope",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::UnknownColumn { .. }));
    }

    #[test]
    fn validate_checks_arity_and_types() {
        let s = schema();
        assert!(s
            .validate(&Row(vec![1i64.into(), "bob".into(), 1.5.into()]))
            .is_ok());
        // float column admits int
        assert!(s
            .validate(&Row(vec![1i64.into(), "bob".into(), 2i64.into()]))
            .is_ok());
        assert!(matches!(
            s.validate(&Row(vec![1i64.into()])),
            Err(StoreError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.validate(&Row(vec!["x".into(), "bob".into(), 1.5.into()])),
            Err(StoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn null_pk_is_rejected_but_other_nulls_admitted() {
        let s = schema();
        assert!(s
            .validate(&Row(vec![Datum::Null, "bob".into(), 1.5.into()]))
            .is_err());
        assert!(s
            .validate(&Row(vec![1i64.into(), Datum::Null, Datum::Null]))
            .is_ok());
    }

    #[test]
    fn catalog_lookups() {
        let mut c = Catalog::new();
        c.add(schema());
        assert!(c.get("users").is_ok());
        assert!(matches!(c.get("ghosts"), Err(StoreError::UnknownTable(_))));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_index_and_pk_index_are_deduped() {
        let s = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Int),
            ],
            "id",
            &["id", "a", "a"],
        )
        .unwrap();
        assert_eq!(s.indexes, vec![1]);
    }
}

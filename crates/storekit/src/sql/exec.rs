//! Plan execution.
//!
//! The executor runs a [`PhysicalPlan`] against a [`RowStore`] — the
//! abstraction over "where rows actually live". In unit tests that is the
//! in-process [`MemStore`]; in the full deployment it is the cluster's
//! storage tier, whose implementation charges CPU to the right pods as the
//! executor pulls rows through it.
//!
//! Reads produce rows (plus MVCC versions); writes produce a [`WriteBatch`]
//! of low-level KV mutations (record row + index maintenance) that the
//! caller routes through Raft. The executor never applies writes itself:
//! commit versions are assigned at apply time by the replication layer.

use crate::error::{StoreError, StoreResult};
use crate::kv::{index_key, record_key, record_key_into, InlineBytes, KvEngine};
use crate::row::Row;
use crate::schema::{Catalog, TableSchema};
use crate::sql::ast::Literal;
use crate::sql::plan::{
    Access, BoundPredicate, BoundProjection, JoinAccess, OutputCol, PhysicalPlan, SelectPlan,
};
use crate::value::Datum;

/// Where rows live. Reads return rows with their MVCC versions.
///
/// [`execute`] is generic over the store, so its calls into the store are
/// static: on the cluster's store a point SELECT's one `point_get` is a
/// direct call the compiler can inline into the executor.
pub trait RowStore {
    /// Decode the live row under primary key `pk` into `row`, reusing its
    /// datum buffer, and return the row's MVCC version. `None`, with `row`
    /// untouched, when there is no such row.
    fn point_get(&mut self, table: &str, pk: &Datum, row: &mut Row) -> StoreResult<Option<u64>>;
    fn index_lookup(
        &mut self,
        table: &str,
        column: usize,
        value: &Datum,
    ) -> StoreResult<Vec<(Row, u64)>>;
    /// Rows whose indexed `column` value lies in `[lo, hi]` (sides optional,
    /// conservatively inclusive — the executor re-applies the exact
    /// predicate as a residual filter).
    fn index_range(
        &mut self,
        table: &str,
        column: usize,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>>;
    /// Rows whose primary key lies in `[lo, hi]` (sides optional).
    fn pk_range(
        &mut self,
        table: &str,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>>;
    fn full_scan(&mut self, table: &str) -> StoreResult<Vec<(Row, u64)>>;
    /// A buffer the write path encodes record keys and rows into before
    /// copying them into [`InlineBytes`], reused across statements.
    fn scratch(&mut self) -> &mut Vec<u8>;
}

/// Execution statistics, the raw material of storage CPU accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows pulled from the store (visited, not necessarily returned).
    pub rows_visited: u64,
    /// Rows in the final result.
    pub rows_returned: u64,
    /// Logical bytes of rows pulled from the store.
    pub bytes_read: u64,
    /// Whether an index or PK access path was used.
    pub used_index: bool,
    /// Number of full table scans performed (including join-side scans).
    pub full_scans: u64,
}

/// One low-level KV mutation (`None` value = tombstone). Key and value are
/// [`InlineBytes`], so a `kv` table write's 14-byte key and 28-byte row
/// travel inside the Raft log entry without a heap allocation of their own.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    pub key: InlineBytes,
    pub value: Option<InlineBytes>,
}

/// All mutations produced by one write statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteBatch {
    /// Record mutation first, index maintenance after.
    pub mutations: Vec<Mutation>,
    /// Logical bytes of the new row images (what replication would ship).
    pub logical_bytes: u64,
}

impl WriteBatch {
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }
}

/// Result of executing one plan. [`execute`] refills one in place.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    pub rows: Vec<Row>,
    /// MVCC version per returned row (left table's row version).
    pub versions: Vec<u64>,
    pub stats: ExecStats,
    /// Present iff the statement was a write.
    pub write: Option<WriteBatch>,
}

fn resolve<'a>(lit: &'a Literal, params: &'a [Datum]) -> StoreResult<&'a Datum> {
    lit.resolve(params).ok_or(StoreError::ArityMismatch {
        expected: match lit {
            Literal::Param(i) => i + 1,
            Literal::Datum(_) => 0,
        },
        got: params.len(),
    })
}

fn matches_all(row: &Row, preds: &[BoundPredicate], params: &[Datum]) -> StoreResult<bool> {
    for p in preds {
        let rhs = resolve(&p.value, params)?;
        let lhs = row.get(p.column).unwrap_or(&Datum::Null);
        if !p.op.eval(lhs.sql_cmp(rhs)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Point-get the row under primary key `value` into `spare`'s buffer,
/// updating stats. On a miss the buffer stays in `spare`.
fn fetch_point<S: RowStore + ?Sized>(
    store: &mut S,
    table: &str,
    value: &Literal,
    params: &[Datum],
    stats: &mut ExecStats,
    spare: &mut Row,
) -> StoreResult<Option<(Row, u64)>> {
    stats.used_index = true;
    let pk = resolve(value, params)?;
    let mut row = std::mem::take(spare);
    match store.point_get(table, pk, &mut row)? {
        Some(version) => {
            stats.rows_visited += 1;
            stats.bytes_read += row.encoded_size();
            Ok(Some((row, version)))
        }
        None => {
            *spare = row;
            Ok(None)
        }
    }
}

/// Fetch the candidate rows of a non-point access path, updating stats.
/// Every caller takes a point get through [`fetch_point`] instead.
fn fetch<S: RowStore + ?Sized>(
    store: &mut S,
    table: &str,
    access: &Access,
    params: &[Datum],
    stats: &mut ExecStats,
) -> StoreResult<Vec<(Row, u64)>> {
    let rows = match access {
        Access::PointGet { .. } => unreachable!("a point get goes through fetch_point"),
        Access::IndexEq { column, value } => {
            stats.used_index = true;
            let v = resolve(value, params)?;
            store.index_lookup(table, *column, v)?
        }
        Access::IndexRange { column, lo, hi } => {
            stats.used_index = true;
            let lo = lo.as_ref().map(|l| resolve(l, params)).transpose()?;
            let hi = hi.as_ref().map(|h| resolve(h, params)).transpose()?;
            store.index_range(table, *column, lo, hi)?
        }
        Access::PkRange { lo, hi } => {
            stats.used_index = true;
            let lo = lo.as_ref().map(|l| resolve(l, params)).transpose()?;
            let hi = hi.as_ref().map(|h| resolve(h, params)).transpose()?;
            store.pk_range(table, lo, hi)?
        }
        Access::FullScan => {
            stats.full_scans += 1;
            store.full_scan(table)?
        }
    };
    for (row, _) in &rows {
        stats.rows_visited += 1;
        stats.bytes_read += row.encoded_size();
    }
    Ok(rows)
}

/// Run `visit` on each candidate row of a write's access path, in fetch
/// order, and lend the row it hands back to `spare`. A point get fetches
/// its at most one row through [`fetch_point`], with no buffer.
fn for_each_candidate<S: RowStore + ?Sized>(
    store: &mut S,
    table: &str,
    access: &Access,
    params: &[Datum],
    stats: &mut ExecStats,
    spare: &mut Row,
    mut visit: impl FnMut(&mut S, Row) -> StoreResult<Row>,
) -> StoreResult<()> {
    match access {
        Access::PointGet { value } => {
            if let Some((row, _)) = fetch_point(store, table, value, params, stats, spare)? {
                *spare = visit(store, row)?;
            }
        }
        access => {
            for (row, _) in fetch(store, table, access, params, stats)? {
                *spare = visit(store, row)?;
            }
        }
    }
    Ok(())
}

/// Execute a plan into `out`, replacing its contents but keeping its
/// buffers. See module docs for the read/write split. The store is a type
/// parameter, so every call into it is static; only writes read the
/// catalog, for their table's schema.
///
/// `spare` lends the executor a row buffer: point gets (a point SELECT,
/// REPLACE's duplicate-key check, an UPDATE or DELETE by primary key)
/// decode into it, and a fetched row that no result keeps goes back to it.
/// The first row of `out`'s previous result becomes the spare before the
/// plan runs, so a caller that keeps `out` and `spare` across statements
/// reads a row of fixed-width datums without allocating.
pub fn execute<S: RowStore + ?Sized>(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    params: &[Datum],
    store: &mut S,
    out: &mut ExecOutcome,
    spare: &mut Row,
) -> StoreResult<()> {
    if let Some(row) = out.rows.drain(..).next() {
        *spare = row;
    }
    out.versions.clear();
    out.stats = ExecStats::default();
    out.write = None;
    let (stats, batch) = match plan {
        PhysicalPlan::Select(s) => return execute_select(s, params, store, out, spare),
        PhysicalPlan::Insert { table, values, replace } => {
            execute_insert(catalog, table, values, *replace, params, store, spare)?
        }
        PhysicalPlan::Update {
            table,
            access,
            residual,
            assignments,
        } => execute_update(catalog, table, access, residual, assignments, params, store, spare)?,
        PhysicalPlan::Delete {
            table,
            access,
            residual,
        } => execute_delete(catalog, table, access, residual, params, store, spare)?,
    };
    out.stats = stats;
    out.write = Some(batch);
    Ok(())
}

/// A left row, its version, and the right row it joined with.
type Joined = (Row, u64, Option<Row>);

/// A SELECT. The planner resolved the table, and the catalog only grows,
/// so no catalog lookup is needed. A point get fetches its at most one row
/// as an `Option`, so filtering, projecting and counting it is straight-line
/// code with no buffer or iterator chain.
fn execute_select<S: RowStore + ?Sized>(
    s: &SelectPlan,
    params: &[Datum],
    store: &mut S,
    out: &mut ExecOutcome,
    spare: &mut Row,
) -> StoreResult<()> {
    let mut stats = ExecStats::default();
    let returned = match &s.access {
        Access::PointGet { value } => {
            let row = fetch_point(store, &s.table, value, params, &mut stats, spare)?;
            select_rows(s, params, row, store, out, &mut stats, spare)?
        }
        access => {
            let rows = fetch(store, &s.table, access, params, &mut stats)?;
            select_rows(s, params, rows, store, out, &mut stats, spare)?
        }
    };
    if matches!(s.projection, BoundProjection::CountStar) {
        out.rows.push(Row(vec![Datum::Int(returned as i64)]));
        out.versions.push(0);
    }
    stats.rows_returned = out.rows.len() as u64;
    out.stats = stats;
    Ok(())
}

/// Filter, join, sort, limit and project fetched `rows` into `out`, and
/// return how many result rows there are (what `COUNT(*)` counts). A row
/// no result keeps goes back to `spare`.
fn select_rows<S: RowStore + ?Sized>(
    s: &SelectPlan,
    params: &[Datum],
    rows: impl IntoIterator<Item = (Row, u64)>,
    store: &mut S,
    out: &mut ExecOutcome,
    stats: &mut ExecStats,
    spare: &mut Row,
) -> StoreResult<u64> {
    if s.join.is_some() || s.order_by.is_some() {
        let joined = join_and_sort(s, params, rows, store, stats)?;
        let returned = joined.len() as u64;
        for j in joined {
            emit(out, &s.projection, j);
        }
        return Ok(returned);
    }
    // Nothing reorders or multiplies rows: project each surviving row as
    // it arrives.
    let mut returned = 0u64;
    for (row, version) in rows {
        if !matches_all(&row, &s.residual, params)? {
            *spare = row;
            continue;
        }
        if s.limit.is_none_or(|limit| returned < limit) {
            returned += 1;
            emit(out, &s.projection, (row, version, None));
        } else {
            *spare = row;
        }
        if s.limit.is_some_and(|limit| returned >= limit) {
            break;
        }
    }
    Ok(returned)
}

/// Filter, join, sort and limit the candidates into one buffer: the path
/// for selects with a join or an ORDER BY.
fn join_and_sort<S: RowStore + ?Sized>(
    s: &SelectPlan,
    params: &[Datum],
    candidates: impl IntoIterator<Item = (Row, u64)>,
    store: &mut S,
    stats: &mut ExecStats,
) -> StoreResult<Vec<Joined>> {
    // LIMIT can only short-circuit when no sort reorders rows afterwards.
    let early_limit = if s.order_by.is_none() { s.limit } else { None };

    // (left row, version, optional right row) tuples surviving filters.
    let mut joined: Vec<Joined> = Vec::new();
    'left: for (lrow, lver) in candidates {
        if !matches_all(&lrow, &s.residual, params)? {
            continue;
        }
        match &s.join {
            None => {
                joined.push((lrow, lver, None));
            }
            Some(j) => {
                let key = lrow.get(j.left_col).unwrap_or(&Datum::Null).clone();
                if key.is_null() {
                    continue; // NULL join keys match nothing
                }
                let right_rows: Vec<(Row, u64)> = match j.access {
                    JoinAccess::ByPk => {
                        stats.used_index = true;
                        let mut rrow = Row::default();
                        let found = store.point_get(&j.table, &key, &mut rrow)?;
                        found.map(|version| (rrow, version)).into_iter().collect()
                    }
                    JoinAccess::ByIndex => {
                        stats.used_index = true;
                        store.index_lookup(&j.table, j.right_col, &key)?
                    }
                    JoinAccess::Scan => {
                        stats.full_scans += 1;
                        store
                            .full_scan(&j.table)?
                            .into_iter()
                            .filter(|(r, _)| {
                                r.get(j.right_col)
                                    .map(|v| v.sql_eq(&key))
                                    .unwrap_or(false)
                            })
                            .collect()
                    }
                };
                stats.rows_visited += right_rows.len() as u64;
                stats.bytes_read += right_rows.iter().map(|(r, _)| r.encoded_size()).sum::<u64>();
                for (rrow, _rver) in right_rows {
                    if !matches_all(&rrow, &j.residual, params)? {
                        continue;
                    }
                    joined.push((lrow.clone(), lver, Some(rrow)));
                    if let Some(limit) = early_limit {
                        if joined.len() as u64 >= limit {
                            break 'left;
                        }
                    }
                }
            }
        }
        if let Some(limit) = early_limit {
            if joined.len() as u64 >= limit {
                break;
            }
        }
    }

    if let Some((col, descending)) = s.order_by {
        joined.sort_by(|(a, _, _), (b, _, _)| {
            let lhs = a.get(col).unwrap_or(&Datum::Null);
            let rhs = b.get(col).unwrap_or(&Datum::Null);
            // NULLs first; incomparable pairs keep insertion order (Equal).
            let ord = match (lhs.is_null(), rhs.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                (false, false) => lhs.sql_cmp(rhs).unwrap_or(std::cmp::Ordering::Equal),
            };
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }

    if let Some(limit) = s.limit {
        joined.truncate(limit as usize);
    }
    Ok(joined)
}

/// Append one result row to `out` (`COUNT(*)` only counts).
fn emit(out: &mut ExecOutcome, projection: &BoundProjection, (lrow, lver, rrow): Joined) {
    let row = match projection {
        BoundProjection::CountStar => return,
        BoundProjection::Star => {
            let mut row = lrow;
            if let Some(r) = rrow {
                row.0.extend(r.0);
            }
            row
        }
        BoundProjection::Columns(cols) => project(lrow, lver, rrow.as_ref(), cols),
    };
    out.rows.push(row);
    out.versions.push(lver);
}

/// Project `cols` out of a left row (and the right row it joined with).
/// Output column `j` overwrites slot `j` of the left row, so the left
/// row's buffer holds the result whenever no output reads a left column
/// from a slot an earlier output already overwrote.
fn project(mut lrow: Row, lver: u64, rrow: Option<&Row>, cols: &[OutputCol]) -> Row {
    let right = |i: usize| rrow.and_then(|r| r.get(i).cloned()).unwrap_or(Datum::Null);
    let in_place = cols
        .iter()
        .enumerate()
        .all(|(j, c)| !matches!(c, OutputCol::Left(i) if *i < j));
    if !in_place {
        let value = |c: &OutputCol| match c {
            OutputCol::Left(i) => lrow.get(*i).cloned().unwrap_or(Datum::Null),
            OutputCol::Right(i) => right(*i),
            OutputCol::Version => Datum::Int(lver as i64),
        };
        return Row(cols.iter().map(value).collect());
    }
    if lrow.0.len() < cols.len() {
        lrow.0.resize(cols.len(), Datum::Null);
    }
    for (j, c) in cols.iter().enumerate() {
        lrow.0[j] = match c {
            OutputCol::Left(i) if *i == j => continue,
            OutputCol::Left(i) => lrow.get(*i).cloned().unwrap_or(Datum::Null),
            OutputCol::Right(i) => right(*i),
            OutputCol::Version => Datum::Int(lver as i64),
        };
    }
    lrow.0.truncate(cols.len());
    lrow
}

/// Run `encode` into the cleared `scratch` buffer and copy the result out:
/// inline when it fits, else into one exactly sized boxed slice.
fn encoded(scratch: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> InlineBytes {
    scratch.clear();
    encode(scratch);
    InlineBytes::from(scratch.as_slice())
}

/// The record mutation writing `row` under primary key `pk`.
fn record_put(scratch: &mut Vec<u8>, table: &str, pk: &Datum, row: &Row) -> Mutation {
    Mutation {
        key: encoded(scratch, |k| record_key_into(k, table, pk)),
        value: Some(encoded(scratch, |v| row.encode_into(v))),
    }
}

/// Index-maintenance mutations for removing `row`'s entries.
fn index_deletes<'a>(schema: &'a TableSchema, row: &'a Row) -> impl Iterator<Item = Mutation> + 'a {
    let pk = schema.pk_of(row);
    schema.indexes.iter().map(move |&col| Mutation {
        key: index_key(&schema.name, col, row.get(col).unwrap_or(&Datum::Null), pk).into(),
        value: None,
    })
}

/// Index-maintenance mutations for adding `row`'s entries. The entry's
/// value is the row's record key, so range scans can locate rows without
/// decoding variable-length key suffixes.
fn index_puts<'a>(schema: &'a TableSchema, row: &'a Row) -> impl Iterator<Item = Mutation> + 'a {
    let pk = schema.pk_of(row);
    schema.indexes.iter().map(move |&col| Mutation {
        key: index_key(&schema.name, col, row.get(col).unwrap_or(&Datum::Null), pk).into(),
        value: Some(record_key(&schema.name, pk).into()),
    })
}

/// Index-maintenance mutations for replacing `old` by `new` under the same
/// primary key: a delete and a put for each entry whose key changed. An
/// unchanged entry is left alone, as a delete and a put of one key in one
/// batch would apply twice at one commit version.
fn index_rewrites<'a>(
    schema: &'a TableSchema,
    old: &'a Row,
    new: &'a Row,
) -> impl Iterator<Item = Mutation> + 'a {
    index_deletes(schema, old)
        .zip(index_puts(schema, new))
        .filter(|(del, put)| del.key != put.key)
        .flat_map(|(del, put)| [del, put])
}

fn execute_insert<S: RowStore + ?Sized>(
    catalog: &Catalog,
    table: &str,
    values: &[Literal],
    replace: bool,
    params: &[Datum],
    store: &mut S,
    spare: &mut Row,
) -> StoreResult<(ExecStats, WriteBatch)> {
    let schema = catalog.get(table)?;
    let row = Row(values
        .iter()
        .map(|l| resolve(l, params).cloned())
        .collect::<StoreResult<Vec<_>>>()?);
    schema.validate(&row)?;
    let pk = schema.pk_of(&row).clone();

    let mut stats = ExecStats {
        used_index: true,
        ..ExecStats::default()
    };
    let mut old = std::mem::take(spare);
    let existing = store.point_get(table, &pk, &mut old)?.is_some();
    if existing {
        stats.rows_visited += 1;
        stats.bytes_read += old.encoded_size();
        if !replace {
            *spare = old;
            return Err(StoreError::DuplicateKey(pk.to_string()));
        }
    }
    let mut batch = WriteBatch {
        mutations: Vec::with_capacity(1 + 2 * schema.indexes.len()),
        logical_bytes: row.encoded_size(),
    };
    batch
        .mutations
        .push(record_put(store.scratch(), table, &pk, &row));
    if existing {
        batch.mutations.extend(index_rewrites(schema, &old, &row));
    } else {
        batch.mutations.extend(index_puts(schema, &row));
    }
    *spare = old;
    Ok((stats, batch))
}

#[allow(clippy::too_many_arguments)]
fn execute_update<S: RowStore + ?Sized>(
    catalog: &Catalog,
    table: &str,
    access: &Access,
    residual: &[BoundPredicate],
    assignments: &[(usize, Literal)],
    params: &[Datum],
    store: &mut S,
    spare: &mut Row,
) -> StoreResult<(ExecStats, WriteBatch)> {
    let schema = catalog.get(table)?;
    let mut stats = ExecStats::default();
    let mut batch = WriteBatch::default();
    let update = |store: &mut S, old: Row| -> StoreResult<Row> {
        if !matches_all(&old, residual, params)? {
            return Ok(old);
        }
        let mut new = old.clone();
        for (col, lit) in assignments {
            new.0[*col] = resolve(lit, params)?.clone();
        }
        schema.validate(&new)?;
        let pk = schema.pk_of(&new).clone();
        batch.mutations.extend(index_rewrites(schema, &old, &new));
        batch.logical_bytes += new.encoded_size();
        batch
            .mutations
            .insert(0, record_put(store.scratch(), table, &pk, &new));
        Ok(old)
    };
    for_each_candidate(store, table, access, params, &mut stats, spare, update)?;
    Ok((stats, batch))
}

fn execute_delete<S: RowStore + ?Sized>(
    catalog: &Catalog,
    table: &str,
    access: &Access,
    residual: &[BoundPredicate],
    params: &[Datum],
    store: &mut S,
    spare: &mut Row,
) -> StoreResult<(ExecStats, WriteBatch)> {
    let schema = catalog.get(table)?;
    let mut stats = ExecStats::default();
    let mut batch = WriteBatch::default();
    let delete = |store: &mut S, old: Row| -> StoreResult<Row> {
        if !matches_all(&old, residual, params)? {
            return Ok(old);
        }
        batch.mutations.push(Mutation {
            key: encoded(store.scratch(), |k| {
                record_key_into(k, table, schema.pk_of(&old))
            }),
            value: None,
        });
        batch.mutations.extend(index_deletes(schema, &old));
        Ok(old)
    };
    for_each_candidate(store, table, access, params, &mut stats, spare, delete)?;
    Ok((stats, batch))
}

// ---------------------------------------------------------------------------
// MemStore: a single-node RowStore over one KvEngine
// ---------------------------------------------------------------------------

/// A simple single-node store: one [`KvEngine`], no replication, no block
/// cache. Used by unit tests and as the state machine replicas apply into.
#[derive(Debug, Default)]
pub struct MemStore {
    pub kv: KvEngine,
    pub catalog: Catalog,
    scratch: Vec<u8>,
}

impl MemStore {
    pub fn new(catalog: Catalog) -> Self {
        MemStore {
            kv: KvEngine::new(),
            catalog,
            scratch: Vec::new(),
        }
    }

    /// Apply a write batch, assigning fresh commit versions. Returns the
    /// version of the record mutation (the row's new MVCC version).
    pub fn apply(&mut self, batch: &WriteBatch) -> u64 {
        let mut row_version = 0;
        for (i, m) in batch.mutations.iter().enumerate() {
            let v = self.kv.next_version();
            self.kv.put_at(&m.key, m.value.as_deref(), v);
            if i == 0 {
                row_version = v;
            }
        }
        row_version
    }

    /// Parse, plan, execute, and apply (if a write) in one call.
    pub fn run(&mut self, sql: &str, params: &[Datum]) -> StoreResult<ExecOutcome> {
        let stmt = crate::sql::parser::parse(sql)?;
        let plan = crate::sql::plan::plan(&self.catalog, &stmt)?;
        let catalog = self.catalog.clone();
        let mut outcome = ExecOutcome::default();
        execute(&catalog, &plan, params, self, &mut outcome, &mut Row::default())?;
        if let Some(batch) = &outcome.write {
            let v = self.apply(batch);
            outcome.versions.push(v);
        }
        Ok(outcome)
    }
}

impl RowStore for MemStore {
    fn point_get(&mut self, table: &str, pk: &Datum, row: &mut Row) -> StoreResult<Option<u64>> {
        record_key_into(&mut self.scratch, table, pk);
        match self.kv.get_latest(&self.scratch) {
            None => Ok(None),
            Some(v) => {
                Row::decode_into(v.value, row)?;
                Ok(Some(v.version))
            }
        }
    }

    fn index_lookup(
        &mut self,
        table: &str,
        column: usize,
        value: &Datum,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let prefix = crate::kv::index_prefix(table, column, value);
        let record_keys: Vec<Vec<u8>> = self
            .kv
            .scan_prefix(&prefix)
            .map(|(_, v)| v.value.to_vec())
            .collect();
        let mut rows = Vec::new();
        for key in record_keys {
            if let Some(v) = self.kv.get_latest(&key) {
                rows.push((Row::decode(v.value)?, v.version));
            }
        }
        Ok(rows)
    }

    fn index_range(
        &mut self,
        table: &str,
        column: usize,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let (start, end) = crate::kv::index_range_bounds(table, column, lo, hi);
        let record_keys: Vec<Vec<u8>> = self
            .kv
            .scan_between(&start, end.as_deref())
            .map(|(_, v)| v.value.to_vec())
            .collect();
        let mut rows = Vec::new();
        for key in record_keys {
            if let Some(v) = self.kv.get_latest(&key) {
                rows.push((Row::decode(v.value)?, v.version));
            }
        }
        Ok(rows)
    }

    fn pk_range(
        &mut self,
        table: &str,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let (start, end) = crate::kv::record_range_bounds(table, lo, hi);
        self.kv
            .scan_between(&start, end.as_deref())
            .map(|(_, v)| Ok((Row::decode(v.value)?, v.version)))
            .collect()
    }

    fn full_scan(&mut self, table: &str) -> StoreResult<Vec<(Row, u64)>> {
        let prefix = crate::kv::record_prefix(table);
        self.kv
            .scan_prefix(&prefix)
            .map(|(_, v)| Ok((Row::decode(v.value)?, v.version)))
            .collect()
    }

    fn scratch(&mut self) -> &mut Vec<u8> {
        &mut self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn store() -> MemStore {
        let mut catalog = Catalog::new();
        catalog.add(
            TableSchema::new(
                "users",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("name", ColumnType::Text),
                    ColumnDef::new("org", ColumnType::Int),
                ],
                "id",
                &["org"],
            )
            .unwrap(),
        );
        catalog.add(
            TableSchema::new(
                "orgs",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("title", ColumnType::Text),
                ],
                "id",
                &[],
            )
            .unwrap(),
        );
        let mut s = MemStore::new(catalog);
        for (id, name, org) in [(1, "ada", 10), (2, "bob", 10), (3, "cyd", 20)] {
            s.run(
                "INSERT INTO users VALUES (?, ?, ?)",
                &[id.into(), name.into(), (org as i64).into()],
            )
            .unwrap();
        }
        s.run("INSERT INTO orgs VALUES (10, 'eng')", &[]).unwrap();
        s.run("INSERT INTO orgs VALUES (20, 'ops')", &[]).unwrap();
        s
    }

    #[test]
    fn point_select_returns_one_row() {
        let mut s = store();
        let out = s.run("SELECT * FROM users WHERE id = 2", &[]).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(1), Some(&Datum::Text("bob".into())));
        assert_eq!(out.stats.rows_visited, 1);
        assert!(out.stats.used_index);
        assert_eq!(out.stats.full_scans, 0);
    }

    #[test]
    fn index_lookup_finds_all_matches() {
        let mut s = store();
        let out = s.run("SELECT name FROM users WHERE org = 10", &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.stats.rows_visited, 2);
        assert!(out.stats.used_index);
    }

    #[test]
    fn full_scan_with_residual_filter() {
        let mut s = store();
        let out = s
            .run("SELECT id FROM users WHERE name = 'cyd'", &[])
            .unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(3)])]);
        assert_eq!(out.stats.rows_visited, 3, "full scan visits everything");
        assert_eq!(out.stats.full_scans, 1);
    }

    #[test]
    fn join_by_pk_returns_combined_columns() {
        let mut s = store();
        let out = s
            .run(
                "SELECT name, title FROM users JOIN orgs ON users.org = orgs.id \
                 WHERE users.id = 1",
                &[],
            )
            .unwrap();
        assert_eq!(
            out.rows,
            vec![Row(vec!["ada".into(), "eng".into()])]
        );
    }

    #[test]
    fn join_star_concatenates_rows() {
        let mut s = store();
        let out = s
            .run(
                "SELECT * FROM users JOIN orgs ON users.org = orgs.id WHERE users.id = 3",
                &[],
            )
            .unwrap();
        assert_eq!(out.rows[0].len(), 5);
        assert_eq!(out.rows[0].get(4), Some(&Datum::Text("ops".into())));
    }

    #[test]
    fn count_star_counts_matches() {
        let mut s = store();
        let out = s.run("SELECT COUNT(*) FROM users WHERE org = 10", &[]).unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(2)])]);
    }

    #[test]
    fn limit_truncates_and_short_circuits() {
        let mut s = store();
        let out = s.run("SELECT * FROM users LIMIT 2", &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn version_pseudo_column_tracks_updates() {
        let mut s = store();
        let v1 = s
            .run("SELECT _version FROM users WHERE id = 1", &[])
            .unwrap()
            .rows[0]
            .get(0)
            .unwrap()
            .as_int()
            .unwrap();
        s.run("UPDATE users SET name = 'ada2' WHERE id = 1", &[])
            .unwrap();
        let v2 = s
            .run("SELECT _version FROM users WHERE id = 1", &[])
            .unwrap()
            .rows[0]
            .get(0)
            .unwrap()
            .as_int()
            .unwrap();
        assert!(v2 > v1, "version must advance on update: {v1} -> {v2}");
    }

    #[test]
    fn update_rewrites_index_entries() {
        let mut s = store();
        s.run("UPDATE users SET org = 20 WHERE id = 1", &[]).unwrap();
        let ten = s.run("SELECT COUNT(*) FROM users WHERE org = 10", &[]).unwrap();
        let twenty = s.run("SELECT COUNT(*) FROM users WHERE org = 20", &[]).unwrap();
        assert_eq!(ten.rows[0].get(0), Some(&Datum::Int(1)));
        assert_eq!(twenty.rows[0].get(0), Some(&Datum::Int(2)));
    }

    #[test]
    fn update_without_index_change_keeps_entries() {
        let mut s = store();
        s.run("UPDATE users SET name = 'x' WHERE id = 1", &[]).unwrap();
        let out = s.run("SELECT name FROM users WHERE org = 10", &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn delete_removes_row_and_index_entries() {
        let mut s = store();
        s.run("DELETE FROM users WHERE id = 2", &[]).unwrap();
        assert!(s.run("SELECT * FROM users WHERE id = 2", &[]).unwrap().rows.is_empty());
        let by_org = s.run("SELECT * FROM users WHERE org = 10", &[]).unwrap();
        assert_eq!(by_org.rows.len(), 1);
    }

    #[test]
    fn duplicate_insert_rejected_replace_allowed() {
        let mut s = store();
        let err = s
            .run("INSERT INTO users VALUES (1, 'dup', 30)", &[])
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey(_)));
        s.run("REPLACE INTO users VALUES (1, 'new', 30)", &[]).unwrap();
        let out = s.run("SELECT name, org FROM users WHERE id = 1", &[]).unwrap();
        assert_eq!(out.rows, vec![Row(vec!["new".into(), Datum::Int(30)])]);
        // old index entry must be gone, new one present
        assert!(s.run("SELECT * FROM users WHERE org = 10", &[]).unwrap().rows.len() == 1);
        assert!(s.run("SELECT * FROM users WHERE org = 30", &[]).unwrap().rows.len() == 1);
    }

    #[test]
    fn replace_rewrites_only_changed_index_entries() {
        let mut s = store();
        // Same org: the index entry stays, only the record is written.
        let same = s.run("REPLACE INTO users VALUES (1, 'new', 10)", &[]).unwrap();
        assert_eq!(same.write.unwrap().mutations.len(), 1);
        let moved = s.run("REPLACE INTO users VALUES (1, 'new', 20)", &[]).unwrap();
        assert_eq!(moved.write.unwrap().mutations.len(), 3);
        assert_eq!(s.run("SELECT * FROM users WHERE org = 20", &[]).unwrap().rows.len(), 2);
    }

    #[test]
    fn missing_params_error_cleanly() {
        let mut s = store();
        let err = s.run("SELECT * FROM users WHERE id = ?", &[]).unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { .. }));
    }

    #[test]
    fn null_join_keys_match_nothing() {
        let mut s = store();
        s.run(
            "INSERT INTO users VALUES (9, 'nil', ?)",
            &[Datum::Null],
        )
        .unwrap();
        let out = s
            .run(
                "SELECT * FROM users JOIN orgs ON users.org = orgs.id WHERE users.id = 9",
                &[],
            )
            .unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn update_by_index_touches_only_matches() {
        let mut s = store();
        let out = s
            .run("UPDATE users SET name = 'multi' WHERE org = 10", &[])
            .unwrap();
        // The org index is unchanged: one record mutation per matched row.
        assert_eq!(out.write.as_ref().unwrap().mutations.len(), 2);
        let names = s.run("SELECT name FROM users WHERE org = 10", &[]).unwrap();
        for row in names.rows {
            assert_eq!(row.get(0), Some(&Datum::Text("multi".into())));
        }
    }

    #[test]
    fn order_by_sorts_and_limits_correctly() {
        let mut s = store();
        let out = s.run("SELECT name FROM users ORDER BY name DESC", &[]).unwrap();
        let names: Vec<&str> = out.rows.iter().map(|r| r.get(0).unwrap().as_text().unwrap()).collect();
        assert_eq!(names, vec!["cyd", "bob", "ada"]);
        // Top-N: LIMIT must apply AFTER the sort, not short-circuit it.
        let out = s.run("SELECT id FROM users ORDER BY id DESC LIMIT 1", &[]).unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(3)])]);
        // Ascending default.
        let out = s.run("SELECT id FROM users ORDER BY org ASC LIMIT 2", &[]).unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn order_by_puts_nulls_first() {
        let mut s = store();
        s.run("INSERT INTO users VALUES (9, 'nil', ?)", &[Datum::Null]).unwrap();
        let out = s.run("SELECT id FROM users ORDER BY org LIMIT 1", &[]).unwrap();
        assert_eq!(out.rows, vec![Row(vec![Datum::Int(9)])]);
    }

    #[test]
    fn order_by_on_join_right_table_is_unsupported() {
        let mut s = store();
        let err = s
            .run(
                "SELECT * FROM users JOIN orgs ON users.org = orgs.id ORDER BY orgs.title",
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Unsupported(_)));
    }

    #[test]
    fn pk_range_queries_return_exact_rows() {
        let mut s = store();
        // ids are 1, 2, 3
        let out = s.run("SELECT id FROM users WHERE id > 1 AND id <= 3", &[]).unwrap();
        let ids: Vec<i64> = out.rows.iter().map(|r| r.get(0).unwrap().as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(out.stats.used_index, "pk range must not full-scan");
        assert_eq!(out.stats.full_scans, 0);
        // Exclusive bounds are exact despite conservative byte ranges.
        let out = s.run("SELECT id FROM users WHERE id > 1 AND id < 3", &[]).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(0), Some(&Datum::Int(2)));
    }

    #[test]
    fn index_range_queries_use_the_index() {
        let mut s = store();
        // orgs are 10, 10, 20
        let out = s.run("SELECT name FROM users WHERE org >= 15", &[]).unwrap();
        assert_eq!(out.rows, vec![Row(vec!["cyd".into()])]);
        assert!(out.stats.used_index);
        assert_eq!(out.stats.full_scans, 0);
        let all = s.run("SELECT COUNT(*) FROM users WHERE org > 5 AND org < 25", &[]).unwrap();
        assert_eq!(all.rows[0].get(0), Some(&Datum::Int(3)));
    }

    #[test]
    fn range_bounds_resolve_from_params() {
        let mut s = store();
        let out = s
            .run("SELECT id FROM users WHERE id >= ? AND id <= ?", &[1.into(), 2.into()])
            .unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn ranges_reflect_updates_and_deletes() {
        let mut s = store();
        s.run("UPDATE users SET org = 30 WHERE id = 3", &[]).unwrap();
        let out = s.run("SELECT COUNT(*) FROM users WHERE org >= 25", &[]).unwrap();
        assert_eq!(out.rows[0].get(0), Some(&Datum::Int(1)));
        s.run("DELETE FROM users WHERE id = 3", &[]).unwrap();
        let out = s.run("SELECT COUNT(*) FROM users WHERE org >= 25", &[]).unwrap();
        assert_eq!(out.rows[0].get(0), Some(&Datum::Int(0)));
    }

    #[test]
    fn payload_values_flow_through_params() {
        let mut catalog = Catalog::new();
        catalog.add(
            TableSchema::new(
                "kv",
                vec![
                    ColumnDef::new("k", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Bytes),
                ],
                "k",
                &[],
            )
            .unwrap(),
        );
        let mut s = MemStore::new(catalog);
        let payload = Datum::Payload { len: 1 << 20, seed: 5 };
        s.run("INSERT INTO kv VALUES (?, ?)", &[1.into(), payload.clone()])
            .unwrap();
        let out = s.run("SELECT v FROM kv WHERE k = 1", &[]).unwrap();
        assert_eq!(out.rows[0].get(0), Some(&payload));
        assert!(out.stats.bytes_read > 1 << 20, "logical bytes accounted");
    }
}

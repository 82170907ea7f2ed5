//! Differential test: the executor's point-SELECT branch vs its general
//! path.
//!
//! A SELECT by primary key fetches its at most one row as an `Option`: a
//! join-free, unsorted one streams the row straight into the result and
//! projects it in the decoded row's buffer, and one with a join or an
//! ORDER BY hands it to the join-and-sort path. The same query written as
//! the range `k >= ? AND k <= ?` with an `ORDER BY` goes through a `Vec`
//! of candidates and the sort buffer instead. On a `MemStore` holding rows
//! with text, bytes, integer and null columns (several versions each, some
//! deleted), and a second table they join to by its primary key (some
//! join keys missing or deleted), a splitmix64 stream of random point
//! SELECTs must return the same rows, versions and `ExecStats` both ways,
//! and the rows must equal the test's own projection of the `SELECT *`
//! result. Each query is one of three shapes: plain, joined by primary key
//! (`JoinAccess::ByPk`), or with an ORDER BY. Each shape covers `*`,
//! column, `_version` and `COUNT(*)` projections (reordered, repeated and
//! mixed with `_version`), residual predicates (on the joined table too),
//! LIMIT 0/1/none, and missing and deleted keys.
//!
//! Run with `cargo test -p storekit --test point_select_oracle -- --nocapture`
//! to see the executed case count.

use storekit::row::Row;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::sql::exec::MemStore;
use storekit::value::Datum;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

const KEYS: i64 = 40;

fn store(rng: &mut Rng) -> MemStore {
    let mut catalog = Catalog::new();
    catalog.add(
        TableSchema::new(
            "items",
            vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Bytes),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("n", ColumnType::Int),
            ],
            "k",
            &[],
        )
        .unwrap(),
    );
    catalog.add(
        TableSchema::new(
            "tags",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("label", ColumnType::Text),
                ColumnDef::new("w", ColumnType::Int),
            ],
            "id",
            &[],
        )
        .unwrap(),
    );
    let mut s = MemStore::new(catalog);
    // Items' `n` runs over 0..10 and tags hold ids 0..7 less the deleted
    // ones: some joins find nothing.
    for id in 0..7i64 {
        let label = Datum::Text(rng.pick(&["red", "blue", ""]).to_string());
        let w = Datum::Int(rng.below(10) as i64);
        s.run("REPLACE INTO tags VALUES (?, ?, ?)", &[id.into(), label, w])
            .unwrap();
    }
    for _ in 0..2 {
        let id = rng.below(7) as i64;
        s.run("DELETE FROM tags WHERE id = ?", &[id.into()])
            .unwrap();
    }
    // Keys at or above KEYS are never written: those reads miss.
    for _ in 0..3 * KEYS {
        let k = rng.below(KEYS as u64) as i64;
        let v = match rng.below(3) {
            0 => Datum::Null,
            1 => Datum::Bytes(vec![rng.below(256) as u8; rng.below(40) as usize]),
            _ => Datum::Payload {
                len: rng.below(4096),
                seed: rng.below(1 << 20),
            },
        };
        let name = if rng.below(5) == 0 {
            Datum::Null
        } else {
            Datum::Text(
                rng.pick(&["ada", "bob", "", "a much longer name"])
                    .to_string(),
            )
        };
        let n = Datum::Int(rng.below(10) as i64);
        s.run(
            "REPLACE INTO items VALUES (?, ?, ?, ?)",
            &[k.into(), v, name, n],
        )
        .unwrap();
        if rng.below(8) == 0 {
            let k = rng.below(KEYS as u64) as i64;
            s.run("DELETE FROM items WHERE k = ?", &[k.into()]).unwrap();
        }
    }
    s
}

/// The test's own projection of a full `items` row, or of an `items` row
/// joined with its `tags` row. Column names are unique across the two
/// tables, so a qualified name resolves by its column part.
fn project(projection: &str, row: &Row, version: u64) -> Row {
    if projection == "*" {
        return row.clone();
    }
    let column = |name: &str| match name {
        "_version" => Datum::Int(version as i64),
        name => {
            let name = name.rsplit('.').next().unwrap();
            let i = ["k", "v", "name", "n", "id", "label", "w"]
                .iter()
                .position(|c| *c == name)
                .unwrap();
            row.0[i].clone()
        }
    };
    Row(projection.split(", ").map(column).collect())
}

#[test]
fn point_selects_match_the_general_path() {
    let projections = [
        "*",
        "COUNT(*)",
        "_version",
        "v",
        "v, _version",
        "_version, v",
        "name, k",
        "n, n, _version",
        "k, v, name, n, _version",
        "n, name, v, k",
        "_version, _version, k, v, name, n",
    ];
    let residuals = [
        "",
        " AND n > ?",
        " AND name = ?",
        " AND n <= ? AND name >= ?",
    ];
    let join_projections = [
        "*",
        "COUNT(*)",
        "_version",
        "items.v, tags.label",
        "tags.label, items.k, _version",
        "tags.w, tags.w, items.n",
        "tags.id, items.name, tags.label, items.v",
    ];
    let join_residuals = [
        "",
        " AND items.n > ?",
        " AND tags.label = ?",
        " AND tags.w <= ? AND items.name >= ?",
    ];
    let orders = ["k", "n DESC", "name", "v DESC"];
    let limits = ["", " LIMIT 0", " LIMIT 1", " LIMIT 5"];
    let shapes = ["plain", "join", "order"];

    let mut rng = Rng(0x9017_5E1E);
    let mut cases = 0u64;
    let mut rows_returned = 0u64;
    let mut per_shape = [(0u64, 0u64); 3];
    for round in 0..8 {
        let mut s = store(&mut rng);
        for _ in 0..1_000 {
            let shape = rng.below(shapes.len() as u64) as usize;
            let (from, key, projection, residual, order) = match shapes[shape] {
                "join" => (
                    "items JOIN tags ON items.n = tags.id",
                    "items.k",
                    rng.pick(&join_projections),
                    rng.pick(&join_residuals),
                    None,
                ),
                shape => (
                    "items",
                    "k",
                    rng.pick(&projections),
                    rng.pick(&residuals),
                    (shape == "order").then(|| *rng.pick(&orders)),
                ),
            };
            let limit = rng.pick(&limits);
            let k = Datum::Int(rng.below(KEYS as u64 + 8) as i64);
            let mut extra: Vec<Datum> = Vec::new();
            for _ in 0..residual.matches('?').count() {
                extra.push(match rng.below(2) {
                    0 => Datum::Int(rng.below(10) as i64),
                    _ => Datum::Text(rng.pick(&["ada", "b", ""]).to_string()),
                });
            }

            let point_order = order.map_or(String::new(), |o| format!(" ORDER BY {o}"));
            let point_sql = format!(
                "SELECT {projection} FROM {from} WHERE {key} = ?{residual}{point_order}{limit}"
            );
            let mut point_params = vec![k.clone()];
            point_params.extend(extra.iter().cloned());
            let range_order = order.unwrap_or(key);
            let range = |projection: &str| {
                format!(
                    "SELECT {projection} FROM {from} WHERE {key} >= ? AND {key} <= ?{residual} \
                     ORDER BY {range_order}{limit}"
                )
            };
            let mut range_params = vec![k.clone(), k.clone()];
            range_params.extend(extra.iter().cloned());

            let ctx = format!("round {round}: {point_sql} {point_params:?}");
            let point = s.run(&point_sql, &point_params);
            let ranged = s.run(&range(projection), &range_params);
            let (point, ranged) = match (point, ranged) {
                (Ok(point), Ok(ranged)) => (point, ranged),
                (Err(point), Err(ranged)) => {
                    assert_eq!(point.to_string(), ranged.to_string(), "{ctx}: error");
                    cases += 1;
                    per_shape[shape].0 += 1;
                    continue;
                }
                (point, ranged) => panic!("{ctx}: point {point:?} vs range {ranged:?}"),
            };
            assert_eq!(point.rows, ranged.rows, "{ctx}: rows");
            assert_eq!(point.versions, ranged.versions, "{ctx}: versions");
            assert_eq!(point.stats, ranged.stats, "{ctx}: stats");

            let star = s.run(&range("*"), &range_params).unwrap();
            let expected: Vec<Row> = if *projection == "COUNT(*)" {
                vec![Row(vec![Datum::Int(star.rows.len() as i64)])]
            } else {
                star.rows
                    .iter()
                    .zip(&star.versions)
                    .map(|(row, &version)| project(projection, row, version))
                    .collect()
            };
            assert_eq!(point.rows, expected, "{ctx}: projection");
            rows_returned += point.stats.rows_returned;
            cases += 1;
            per_shape[shape].0 += 1;
            per_shape[shape].1 += point.stats.rows_returned;
        }
    }
    println!("point_select_oracle: {cases} query pairs, {rows_returned} rows returned");
    for (name, (cases, rows)) in shapes.iter().zip(per_shape) {
        println!("  {name}: {cases} query pairs, {rows} rows returned");
        assert!(rows > cases / 8, "too few {name} queries returned rows");
    }
}

//! Differential test: the executor's streaming point-SELECT path vs its
//! general path.
//!
//! A join-free, unsorted SELECT by primary key streams its at most one row
//! straight into the result and projects it in the decoded row's buffer.
//! The same query written as the range `k >= ? AND k <= ?` with an
//! `ORDER BY k` goes through a `Vec` of candidates and the sort buffer
//! instead. On a `MemStore` holding rows with text, bytes, integer and
//! null columns (several versions each, some deleted), a splitmix64 stream
//! of random point SELECTs must return the same rows, versions and
//! `ExecStats` both ways, and the rows must equal the test's own
//! projection of the `SELECT *` result. The queries cover `*`, column,
//! `_version` and `COUNT(*)` projections (reordered, repeated and mixed
//! with `_version`), residual predicates, LIMIT 0/1/none, and missing and
//! deleted keys.
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
    let mut s = MemStore::new(catalog);
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

/// The test's own projection of a full `items` row.
fn project(projection: &str, row: &Row, version: u64) -> Row {
    if projection == "*" {
        return row.clone();
    }
    let column = |name: &str| match name {
        "_version" => Datum::Int(version as i64),
        name => {
            let i = ["k", "v", "name", "n"]
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
    let limits = ["", " LIMIT 0", " LIMIT 1", " LIMIT 5"];

    let mut rng = Rng(0x9017_5E1E);
    let mut cases = 0u64;
    let mut rows_returned = 0u64;
    for round in 0..8 {
        let mut s = store(&mut rng);
        for _ in 0..1_000 {
            let projection = rng.pick(&projections);
            let residual = rng.pick(&residuals);
            let limit = rng.pick(&limits);
            let k = Datum::Int(rng.below(KEYS as u64 + 8) as i64);
            let mut extra: Vec<Datum> = Vec::new();
            for _ in 0..residual.matches('?').count() {
                extra.push(match rng.below(2) {
                    0 => Datum::Int(rng.below(10) as i64),
                    _ => Datum::Text(rng.pick(&["ada", "b", ""]).to_string()),
                });
            }

            let point_sql = format!("SELECT {projection} FROM items WHERE k = ?{residual}{limit}");
            let mut point_params = vec![k.clone()];
            point_params.extend(extra.iter().cloned());
            let range = |projection: &str| {
                format!(
                    "SELECT {projection} FROM items WHERE k >= ? AND k <= ?{residual} \
                     ORDER BY k{limit}"
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
        }
    }
    println!("point_select_oracle: {cases} query pairs, {rows_returned} rows returned");
    assert!(rows_returned > cases / 8, "too few queries returned rows");
}

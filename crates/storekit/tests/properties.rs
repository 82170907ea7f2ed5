//! Property-based tests for the storage substrate: latest-version reads,
//! key-encoding order preservation, row codec totality, and SQL engine
//! equivalence against a naive reference implementation.

// The offline `proptest` stub swallows `proptest!` blocks, leaving the
// strategy helpers (and some imports) unreferenced in offline builds.
#![allow(dead_code, unused_imports)]
use proptest::prelude::*;
use storekit::kv::{encode_key_datum, KvEngine};
use storekit::row::Row;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::sql::exec::MemStore;
use storekit::value::Datum;
use std::collections::HashMap;

fn datum_strategy() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        any::<i64>().prop_map(Datum::Int),
        any::<f64>().prop_filter("finite", |x| x.is_finite()).prop_map(Datum::Float),
        "[a-zA-Z0-9 _'-]{0,40}".prop_map(Datum::Text),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Datum::Bytes),
        (0u64..1_000_000, any::<u64>()).prop_map(|(len, seed)| Datum::Payload { len, seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Row encode/decode is a bijection on well-formed rows.
    #[test]
    fn row_codec_round_trips(datums in proptest::collection::vec(datum_strategy(), 0..12)) {
        let row = Row(datums);
        let decoded = Row::decode(&row.encode()).unwrap();
        prop_assert_eq!(decoded, row);
    }

    /// Decoding never panics on arbitrary bytes — it returns Ok or Err.
    #[test]
    fn row_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Row::decode(&bytes);
    }

    /// Key encoding preserves value order for ints and text.
    #[test]
    fn int_key_order(a in any::<i64>(), b in any::<i64>()) {
        let enc = |v: i64| {
            let mut k = Vec::new();
            encode_key_datum(&mut k, &Datum::Int(v));
            k
        };
        prop_assert_eq!(a.cmp(&b), enc(a).cmp(&enc(b)));
    }

    #[test]
    fn text_key_order(a in "[\\x00-\\x7f]{0,24}", b in "[\\x00-\\x7f]{0,24}") {
        let enc = |v: &str| {
            let mut k = Vec::new();
            encode_key_datum(&mut k, &Datum::Text(v.to_string()));
            k
        };
        prop_assert_eq!(a.as_bytes().cmp(b.as_bytes()), enc(&a).cmp(&enc(&b)));
    }

    /// Versioned writes: after every write or delete, each key reads its
    /// newest value and reports its newest version, tombstones included,
    /// and commit versions only increase.
    #[test]
    fn latest_reads_track_the_newest_write(ops in proptest::collection::vec(
        (0u8..16, proptest::option::of(proptest::collection::vec(any::<u8>(), 0..8))), 1..60))
    {
        let mut kv = KvEngine::new();
        // The reference: each key's newest (version, value).
        let mut latest: HashMap<u8, (u64, Option<Vec<u8>>)> = HashMap::new();
        let mut last_version = 0;
        for (key, val) in &ops {
            let k = vec![*key];
            let version = match val {
                Some(v) => kv.put(k, v.clone()),
                None => kv.delete(k),
            };
            prop_assert!(version > last_version, "version {} after {}", version, last_version);
            last_version = version;
            latest.insert(*key, (version, val.clone()));
            for key in 0u8..16 {
                let want = latest.get(&key);
                let got = kv.get_latest(&[key]).map(|v| (v.version, v.value.to_vec()));
                let visible = want.and_then(|(ver, val)| Some((*ver, val.clone()?)));
                prop_assert_eq!(got, visible, "key {} after v{}", key, version);
                prop_assert_eq!(kv.latest_version(&[key]), want.map(|w| w.0), "key {}", key);
            }
        }
    }

    /// SQL engine vs a naive in-memory table: point reads, indexed reads,
    /// updates and deletes agree.
    #[test]
    fn sql_engine_matches_reference(ops in proptest::collection::vec(
        (0u8..3, 0i64..24, 0i64..6, any::<u8>()), 1..80))
    {
        let mut catalog = Catalog::new();
        catalog.add(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("grp", ColumnType::Int),
                ColumnDef::new("val", ColumnType::Int),
            ],
            "id",
            &["grp"],
        ).unwrap());
        let mut store = MemStore::new(catalog);
        let mut reference: HashMap<i64, (i64, i64)> = HashMap::new();

        for (op, id, grp, val) in ops {
            let val = val as i64;
            match op {
                0 => { // upsert
                    store.run(
                        "REPLACE INTO t VALUES (?, ?, ?)",
                        &[id.into(), grp.into(), val.into()],
                    ).unwrap();
                    reference.insert(id, (grp, val));
                }
                1 => { // delete
                    store.run("DELETE FROM t WHERE id = ?", &[id.into()]).unwrap();
                    reference.remove(&id);
                }
                _ => { // update val by group
                    store.run(
                        "UPDATE t SET val = ? WHERE grp = ?",
                        &[val.into(), grp.into()],
                    ).unwrap();
                    for (_, v) in reference.values_mut().filter(|(g, _)| *g == grp) {
                        *v = val;
                    }
                }
            }
            // Point read agreement for the touched id.
            let got = store.run("SELECT grp, val FROM t WHERE id = ?", &[id.into()]).unwrap();
            match reference.get(&id) {
                None => prop_assert!(got.rows.is_empty()),
                Some((g, v)) => {
                    prop_assert_eq!(&got.rows[0], &Row(vec![Datum::Int(*g), Datum::Int(*v)]));
                }
            }
            // Indexed read agreement for the touched group.
            let got = store.run("SELECT COUNT(*) FROM t WHERE grp = ?", &[grp.into()]).unwrap();
            let expect = reference.values().filter(|(g, _)| *g == grp).count() as i64;
            prop_assert_eq!(got.rows[0].get(0), Some(&Datum::Int(expect)));
        }
    }
}

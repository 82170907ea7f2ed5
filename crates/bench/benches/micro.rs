//! Criterion micro-benchmarks of the substrates perfbench does not time on
//! their own.
//!
//! These measure *host* performance of building blocks (not simulated
//! cost): SQL parse and plan, the row codec and the wire codec. Cache
//! operations, MVCC reads, point SELECTs and whole simulated requests are
//! timed by perfbench's isolated layers and replay (`perfbench/`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dcache::deployment::kv_catalog;
use storekit::row::Row;
use storekit::sql::{parse, plan};
use storekit::value::Datum;

fn bench_sql(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql");
    let sql = "SELECT v, _version FROM kv WHERE k = ?";
    group.bench_function("parse", |b| b.iter(|| black_box(parse(sql).unwrap())));
    let stmt = parse(sql).unwrap();
    let catalog = kv_catalog("kv");
    group.bench_function("plan", |b| b.iter(|| black_box(plan(&catalog, &stmt).unwrap())));
    group.finish();
}

fn bench_row_codec(c: &mut Criterion) {
    let row = Row(vec![
        Datum::Int(42),
        Datum::Text("catalog_7.schema_3.table_99".into()),
        Datum::Bytes(vec![7; 256]),
        Datum::Payload { len: 1 << 20, seed: 9 },
    ]);
    let encoded = row.encode();
    let mut group = c.benchmark_group("row_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(row.encode())));
    group.bench_function("decode", |b| b.iter(|| black_box(Row::decode(&encoded).unwrap())));
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    use bytes::BytesMut;
    use netrpc::Request;
    let req = Request::Set {
        key: b"user:12345".to_vec(),
        value: vec![0xAB; 1024],
        ttl_ms: Some(30_000),
    };
    let mut group = c.benchmark_group("wire_codec");
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("encode_decode_set_1k", |b| {
        b.iter(|| {
            let mut buf = BytesMut::new();
            req.encode(&mut buf);
            black_box(Request::decode(&mut buf).unwrap());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sql, bench_row_codec, bench_wire_codec);
criterion_main!(benches);

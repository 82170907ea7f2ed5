//! Rows and their binary encoding.
//!
//! Rows are stored in the KV engine and shipped between tiers as real byte
//! strings — the simulator charges serialization CPU per byte, so encoding
//! must produce honest sizes. The format is deliberately simple: a u16
//! column count, then per-datum `[tag][payload]` with length-prefixed
//! variable fields.

use crate::error::{StoreError, StoreResult};
use crate::value::Datum;

/// One table row: a vector of datums in schema column order.
///
/// Note on sizes: [`Row::encoded_size`] reports the *logical* wire size used
/// for cost accounting. For all datums except [`Datum::Payload`] it equals
/// the physical encoding length; `Payload` encodes in 17 physical bytes but
/// accounts at its declared length (see `value.rs`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<Datum>);

impl Row {
    pub fn new(values: Vec<Datum>) -> Self {
        Row(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, idx: usize) -> Option<&Datum> {
        self.0.get(idx)
    }

    /// Total encoded size (used for byte accounting without encoding).
    pub fn encoded_size(&self) -> u64 {
        2 + self.0.iter().map(|d| d.encoded_size()).sum::<u64>()
    }

    /// Exact length of the encoding: the logical size, except that a
    /// payload takes its 17 physical bytes.
    fn physical_size(&self) -> usize {
        let datum = |d: &Datum| match d {
            Datum::Payload { .. } => 17,
            d => d.encoded_size() as usize,
        };
        2 + self.0.iter().map(datum).sum::<usize>()
    }

    /// Encode to the binary wire/storage format.
    pub fn encode(&self) -> Vec<u8> {
        // Sized to the physical bytes: a payload's logical size would
        // reserve kilobytes for its 17-byte encoding.
        let mut out = Vec::with_capacity(self.physical_size());
        self.encode_into(&mut out);
        out
    }

    /// Append the encoding to `out`, so bulk paths can reuse one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u16).to_le_bytes());
        for d in &self.0 {
            match d {
                Datum::Null => out.push(0),
                Datum::Bool(b) => {
                    out.push(1);
                    out.push(*b as u8);
                }
                Datum::Int(i) => {
                    out.push(2);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Datum::Float(x) => {
                    out.push(3);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Datum::Text(s) => {
                    out.push(4);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Datum::Bytes(b) => {
                    out.push(5);
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
                Datum::Payload { len, seed } => {
                    out.push(6);
                    out.extend_from_slice(&len.to_le_bytes());
                    out.extend_from_slice(&seed.to_le_bytes());
                }
            }
        }
    }

    /// Decode from the binary format.
    pub fn decode(bytes: &[u8]) -> StoreResult<Row> {
        let mut row = Row::default();
        Row::decode_into(bytes, &mut row)?;
        Ok(row)
    }

    /// Decode from the binary format into `row`, replacing its datums but
    /// keeping its buffer: a point read that decodes into a reused row
    /// allocates only for the owned payloads of `Text`/`Bytes` datums. On
    /// error `row` holds the datums decoded before the fault.
    pub fn decode_into(bytes: &[u8], row: &mut Row) -> StoreResult<()> {
        let err = |pos: usize, message: &str| StoreError::Syntax {
            pos,
            message: format!("row decode: {message}"),
        };
        let mut pos = 0usize;
        // Borrowing cursor: field bytes are sliced in place.
        fn take<'a>(pos: &mut usize, n: usize, bytes: &'a [u8]) -> StoreResult<&'a [u8]> {
            let Some(out) = bytes.get(*pos..*pos + n) else {
                return Err(StoreError::Syntax {
                    pos: *pos,
                    message: "row decode: truncated".to_string(),
                });
            };
            *pos += n;
            Ok(out)
        }
        let count_bytes = take(&mut pos, 2, bytes)?;
        let count = u16::from_le_bytes([count_bytes[0], count_bytes[1]]) as usize;
        let values = &mut row.0;
        values.clear();
        values.reserve(count);
        for _ in 0..count {
            let tag = take(&mut pos, 1, bytes)?[0];
            let datum = match tag {
                0 => Datum::Null,
                1 => Datum::Bool(take(&mut pos, 1, bytes)?[0] != 0),
                2 => {
                    let b = take(&mut pos, 8, bytes)?;
                    Datum::Int(i64::from_le_bytes(b.try_into().unwrap()))
                }
                3 => {
                    let b = take(&mut pos, 8, bytes)?;
                    Datum::Float(f64::from_le_bytes(b.try_into().unwrap()))
                }
                4 => {
                    let l = take(&mut pos, 4, bytes)?;
                    let len = u32::from_le_bytes(l.try_into().unwrap()) as usize;
                    let s = take(&mut pos, len, bytes)?;
                    let s = std::str::from_utf8(s).map_err(|_| err(pos, "bad utf8"))?;
                    Datum::Text(s.to_string())
                }
                5 => {
                    let l = take(&mut pos, 4, bytes)?;
                    let len = u32::from_le_bytes(l.try_into().unwrap()) as usize;
                    Datum::Bytes(take(&mut pos, len, bytes)?.to_vec())
                }
                6 => {
                    let l = take(&mut pos, 8, bytes)?;
                    let s = take(&mut pos, 8, bytes)?;
                    Datum::Payload {
                        len: u64::from_le_bytes(l.try_into().unwrap()),
                        seed: u64::from_le_bytes(s.try_into().unwrap()),
                    }
                }
                t => return Err(err(pos, &format!("unknown tag {t}"))),
            };
            values.push(datum);
        }
        if pos != bytes.len() {
            return Err(err(pos, "trailing bytes"));
        }
        Ok(())
    }
}

impl From<Vec<Datum>> for Row {
    fn from(v: Vec<Datum>) -> Self {
        Row(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row(vec![
            Datum::Int(42),
            Datum::Text("unity".into()),
            Datum::Null,
            Datum::Bool(true),
            Datum::Float(2.5),
            Datum::Bytes(vec![1, 2, 3]),
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let row = sample();
        let bytes = row.encode();
        assert_eq!(Row::decode(&bytes).unwrap(), row);
        // Decoding into a longer row replaces every datum in its buffer.
        let mut reused = Row(vec![Datum::Text("stale".into()); 9]);
        let capacity = reused.0.capacity();
        Row::decode_into(&bytes, &mut reused).unwrap();
        assert_eq!(reused, row);
        assert_eq!(reused.0.capacity(), capacity);
    }

    #[test]
    fn encoded_size_matches_actual_encoding() {
        let row = sample();
        assert_eq!(row.encoded_size(), row.encode().len() as u64);
        assert_eq!(Row::default().encoded_size(), 2);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = sample().encode();
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(Row::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0xFF);
        assert!(Row::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = vec![1, 0]; // one column
        bytes.push(9); // bogus tag
        assert!(Row::decode(&bytes).is_err());
    }

    #[test]
    fn payload_round_trips_compactly() {
        let row = Row(vec![
            Datum::Int(1),
            Datum::Payload { len: 1 << 20, seed: 42 },
        ]);
        let bytes = row.encode();
        // Physical: 2 + (1+8) + (1+16) = 28 bytes, despite a 1 MiB logical size.
        assert_eq!(bytes.len(), 28);
        assert_eq!(bytes.capacity(), 28);
        assert_eq!(sample().encode().capacity(), sample().encoded_size() as usize);
        assert!(row.encoded_size() > 1 << 20);
        assert_eq!(Row::decode(&bytes).unwrap(), row);
    }

    #[test]
    fn empty_row_round_trips() {
        let row = Row::default();
        assert_eq!(Row::decode(&row.encode()).unwrap(), row);
    }
}

//! The byte format of a group space's stored rows — the one module that
//! knows it.
//!
//! A row is the range position of each prefix parameter of one valid
//! prefix. Rows lie back to back in one byte vector, every position the
//! same `width` bytes (1, 2, 4 or 8, little-endian), chosen once per group
//! from its largest prefix range: all widths run the same code, and a
//! group costs one allocation however many rows it has.

use crate::range::Range;

/// Packed rows of range positions.
#[derive(Clone)]
pub(crate) struct PackedRows {
    /// Positions per row.
    row_len: usize,
    /// Bytes per position.
    width: usize,
    bytes: Vec<u8>,
}

impl PackedRows {
    /// No rows yet, over the `prefix` ranges (one position per range and
    /// row, wide enough for the largest range's last position).
    pub(crate) fn new(prefix: &[Range]) -> Self {
        let width = match prefix.iter().map(Range::len).max().unwrap_or(0) {
            0..=0x100 => 1,
            0x101..=0x1_0000 => 2,
            0x1_0001..=0x1_0000_0000 => 4,
            _ => 8,
        };
        PackedRows {
            row_len: prefix.len(),
            width,
            bytes: Vec::new(),
        }
    }

    /// Appends one row of positions.
    pub(crate) fn push(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.row_len);
        for pos in row {
            self.bytes
                .extend_from_slice(&pos.to_le_bytes()[..self.width]);
        }
    }

    /// Appends the rows of `chunks`, in order.
    pub(crate) fn extend(&mut self, chunks: &[PackedRows]) {
        self.bytes
            .reserve_exact(chunks.iter().map(|c| c.bytes.len()).sum());
        for chunk in chunks {
            self.bytes.extend_from_slice(&chunk.bytes);
        }
    }

    pub(crate) fn row_len(&self) -> usize {
        self.row_len
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of rows. Rows of no position cannot be told apart: there is
    /// exactly one, the empty prefix.
    pub(crate) fn rows(&self) -> u64 {
        let row_bytes = self.row_len * self.width;
        self.bytes.len().checked_div(row_bytes).unwrap_or(1) as u64
    }

    /// The `at`-th stored position, row-major.
    pub(crate) fn get(&self, at: usize) -> u64 {
        let mut le = [0u8; 8];
        le[..self.width].copy_from_slice(&self.bytes[at * self.width..][..self.width]);
        u64::from_le_bytes(le)
    }

    /// The rows as one hex string.
    pub(crate) fn to_hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut text = String::with_capacity(self.bytes.len() * 2);
        for byte in &self.bytes {
            text.push(DIGITS[usize::from(byte >> 4)] as char);
            text.push(DIGITS[usize::from(byte & 15)] as char);
        }
        text
    }

    /// Rows over the `prefix` ranges from untrusted [`Self::to_hex`] text:
    /// `None` unless it is whole rows of positions that all lie inside
    /// their ranges — what makes decoding them safe.
    pub(crate) fn from_hex(prefix: &[Range], text: &str) -> Option<Self> {
        let digit = |c: u8| (c as char).to_digit(16);
        let pairs = text.as_bytes().chunks_exact(2);
        if !pairs.remainder().is_empty() {
            return None;
        }
        let mut rows = Self::new(prefix);
        rows.bytes = pairs
            .map(|pair| Some((digit(pair[0])? << 4 | digit(pair[1])?) as u8))
            .collect::<Option<_>>()?;
        let whole_rows = match rows.row_len * rows.width {
            0 => rows.bytes.is_empty(),
            row_bytes => rows.bytes.len().is_multiple_of(row_bytes),
        };
        let positions = rows.bytes.len() / rows.width;
        let in_range = |at| rows.get(at) < prefix[at % rows.row_len].len();
        (whole_rows && (0..positions).all(in_range)).then_some(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_round_trips_its_largest_position() {
        for (len, width) in [
            (1u64, 1usize),
            (0x100, 1),
            (0x101, 2),
            (0x1_0000, 2),
            (0x1_0001, 4),
            (0x1_0000_0000, 4),
            (0x1_0000_0001, 8),
            (u64::MAX, 8),
        ] {
            let prefix = [Range::interval(1, len), Range::interval(1, 2)];
            let mut rows = PackedRows::new(&prefix);
            assert_eq!((rows.width(), rows.row_len(), rows.rows()), (width, 2, 0));
            rows.push(&[len - 1, 1]);
            rows.push(&[0, 0]);
            assert_eq!(rows.rows(), 2);
            let got: Vec<u64> = (0..4).map(|at| rows.get(at)).collect();
            assert_eq!(got, [len - 1, 1, 0, 0], "range of {len} positions");
            let back = PackedRows::from_hex(&prefix, &rows.to_hex()).expect("round trip");
            assert_eq!(back.bytes, rows.bytes);
        }
    }

    #[test]
    fn chunks_concatenate_in_order() {
        let prefix = [Range::interval(1, 300)];
        let chunk = |positions: &[u64]| {
            let mut rows = PackedRows::new(&prefix);
            positions.iter().for_each(|&p| rows.push(&[p]));
            rows
        };
        let mut all = PackedRows::new(&prefix);
        all.extend(&[chunk(&[7, 299]), chunk(&[]), chunk(&[0])]);
        let got: Vec<u64> = (0..3).map(|at| all.get(at)).collect();
        assert_eq!((all.rows(), got), (3, vec![7, 299, 0]));
    }

    #[test]
    fn untrusted_text_is_validated_before_it_is_decoded() {
        let prefix = [Range::interval(1, 3), Range::interval(1, 300)];
        let ok = |text| PackedRows::from_hex(&prefix, text).is_some();
        assert!(ok("") && ok("02002b01"), "no row; (2, 299)");
        assert!(!ok("03000000"), "position 3 of a 3-value range");
        assert!(!ok("00002c01"), "position 300 of a 300-value range");
        assert!(!ok("0200"), "half a row");
        assert!(!ok("02002b0"), "half a byte");
        assert!(!ok("0g002b01") && !ok("+2002b01"), "not hex");
        // No prefix: the one empty row is implied, never spelled out.
        assert_eq!(PackedRows::from_hex(&[], "").map(|r| r.rows()), Some(1));
        assert!(PackedRows::from_hex(&[], "00").is_none());
    }
}

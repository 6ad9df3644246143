//! Reader fuzz corpus: both on-disk readers take outside input, so no
//! byte string may make them panic. Every case must come back `Ok` or
//! `Err`, and every `Ok` must be a database that `write_binary` writes
//! and `read_binary` reads back unchanged.
//!
//! * `read_binary` gets truncations and byte mutations of valid images,
//!   plus arbitrary bytes (half of them behind a valid magic/version so
//!   they reach the counts and payload checks);
//! * `read_text` gets random token lines — small ids, ids near
//!   `u32::MAX`, negatives, overflowing numbers and non-numbers — with
//!   `n_items` of 0 (inferred), small, and `u32::MAX`.

use arm_dataset::io::{read_binary, read_text, write_binary, write_text};
use arm_dataset::Database;
use proptest::collection::vec;
use proptest::prelude::*;

/// The binary image of `db`.
fn image(db: &Database) -> Vec<u8> {
    let mut buf = Vec::new();
    write_binary(db, &mut buf).unwrap();
    buf
}

/// Checks the contract for one reader result: an `Ok` database survives
/// a binary round trip unchanged.
fn check_roundtrip(db: &Database) -> Result<(), TestCaseError> {
    let back = read_binary(&image(db)[..]);
    prop_assert!(back.is_ok(), "re-read failed: {:?}", back.err());
    prop_assert_eq!(&back.unwrap(), db);
    Ok(())
}

/// One text token: `(kind, raw, small)` picks among small ids, ids near
/// `u32::MAX`, negatives, numbers past `u32::MAX`, and non-numbers.
fn token((kind, raw, small): (u8, u32, u32)) -> String {
    const JUNK: [&str; 8] = ["x", "1.5", "+3", "0x10", "-", "1e3", "٣", "4,2"];
    match kind {
        0..=3 => small.to_string(),
        4 => (u32::MAX - raw % 4).to_string(),
        5 => format!("-{}", raw % 1000),
        6 => (u64::from(u32::MAX) + 1 + u64::from(raw)).to_string(),
        _ => JUNK[raw as usize % JUNK.len()].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid images, then up to three byte overwrites, then a cut.
    #[test]
    fn binary_mutations_never_panic(
        n_items in 1u32..64,
        txns in vec(vec(0u32..64, 0..8), 0..20),
        edits in vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
        cut in any::<prop::sample::Index>(),
    ) {
        let txns: Vec<Vec<u32>> = txns
            .into_iter()
            .map(|t| t.into_iter().map(|i| i % n_items).collect())
            .collect();
        let db = Database::from_transactions(n_items, txns).unwrap();
        let mut bytes = image(&db);
        prop_assert_eq!(&read_binary(&bytes[..]).unwrap(), &db);
        for (at, byte) in edits {
            let i = at.index(bytes.len());
            bytes[i] = byte;
        }
        bytes.truncate(cut.index(bytes.len() + 1));
        if let Ok(back) = read_binary(&bytes[..]) {
            // An accepted image is exactly what the writer emits for it.
            prop_assert_eq!(image(&back), bytes);
            check_roundtrip(&back)?;
        }
    }

    /// Arbitrary bytes, half of them behind a valid magic and version.
    #[test]
    fn binary_arbitrary_bytes_never_panic(
        bytes in vec(any::<u8>(), 0..96),
        valid_header in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if valid_header && bytes.len() >= 8 {
            bytes[..4].copy_from_slice(b"ARMD");
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        }
        if let Ok(back) = read_binary(&bytes[..]) {
            prop_assert_eq!(image(&back), bytes);
            check_roundtrip(&back)?;
        }
    }

    /// Random token lines against inferred, small and maximal `n_items`.
    /// Half the texts hold only valid ids, so the item-count inference is
    /// reached instead of stopping at the first bad token.
    #[test]
    fn text_tokens_never_panic(
        lines in vec(vec((0u8..8, any::<u32>(), 0u32..50), 0..6), 0..8),
        ids_only in any::<bool>(),
        tabs in any::<bool>(),
        n_items_kind in 0u8..3,
        small_n in 1u32..64,
    ) {
        let sep = if tabs { "\t" } else { " " };
        let text: String = lines
            .into_iter()
            .map(|l| {
                l.into_iter()
                    .map(|(kind, raw, small)| token((if ids_only { kind % 5 } else { kind }, raw, small)))
                    .collect::<Vec<_>>()
                    .join(sep)
                    + "\n"
            })
            .collect();
        let n_items = match n_items_kind {
            0 => 0,
            1 => small_n,
            _ => u32::MAX,
        };
        if let Ok(db) = read_text(text.as_bytes(), n_items) {
            check_roundtrip(&db)?;
            let mut again = Vec::new();
            write_text(&db, &mut again).unwrap();
            prop_assert_eq!(&read_text(&again[..], db.n_items()).unwrap(), &db);
        }
    }
}

//! Property-based fuzzing of the JSON parser, which reads third-party
//! bytes (`bundle verify` parses a supplied `manifest.json`).
//!
//! The contract pinned here: arbitrary input produces `Ok` or `Err`,
//! never a panic; and every tree the pretty printer writes parses back
//! to the same tree.

use proptest::prelude::*;
use roboshape_obs::json::{parse, Json};

/// Arbitrary bytes of a length in `len` (the vendored proptest has no
/// `any::<u8>()`).
fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u64..256, len)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>())
}

/// Text over the characters JSON's grammar turns on, so inputs get deep
/// into the parser instead of failing on the first byte.
fn jsonish() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"{}[]:,\"\\/u0123456789.eE+-truefalsn \n";
    proptest::collection::vec(0..ALPHABET.len(), 0..64)
        .prop_map(|v| v.into_iter().map(|i| char::from(ALPHABET[i])).collect())
}

/// A tree decoded from a stream of random words: each word picks a node
/// kind and its payload, and containers recurse up to `depth`.
fn tree(words: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let w = words.next().unwrap_or(0);
    let kind = if depth == 0 { w % 4 } else { w % 6 };
    let size = ((w >> 8) % 4) as usize;
    match kind {
        0 => Json::Null,
        1 => Json::Bool(w & 0x100 != 0),
        // Integers, or finite doubles of every exponent and sign.
        2 if w & 0x200 != 0 => Json::Num((w >> 16) as f64 - 1e9),
        2 => Json::Num(
            Some(f64::from_bits(w))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        ),
        3 => Json::Str(string(w)),
        4 => Json::Arr((0..size).map(|_| tree(words, depth - 1)).collect()),
        _ => Json::Obj(
            (0..size)
                .map(|i| (format!("{}{i}", string(w)), tree(words, depth - 1)))
                .collect(),
        ),
    }
}

/// A short string over the characters the escaper rewrites, plain
/// ASCII, and multi-byte characters.
fn string(w: u64) -> String {
    const CHARS: [char; 8] = ['"', '\\', '\n', '\t', '\u{1}', 'a', 'é', '€'];
    (0..(w >> 12) % 6)
        .map(|i| CHARS[((w >> (20 + 3 * i)) % 8) as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(raw in bytes(0..96)) {
        let _ = parse(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn jsonish_text_never_panics(text in jsonish()) {
        let _ = parse(&text);
    }

    #[test]
    fn printed_trees_parse_back_unchanged(words in proptest::collection::vec(0u64..u64::MAX, 1..48)) {
        let v = tree(&mut words.into_iter(), 4);
        let printed = v.to_pretty();
        prop_assert_eq!(parse(&printed), Ok(v), "{}", printed);
    }
}

//! The JSON codec's contract: escape → parse round-trips every string,
//! the parser is total on arbitrary and damaged input, and nesting depth
//! is bounded so no input can exhaust a small thread stack.
//!
//! Random cases are drawn from a fixed-seed SplitMix64 stream, so every
//! run checks the same cases.

use embsan_obs::json::{escape, parse, Value, MAX_DEPTH};

/// SplitMix64 (the generator `embsan-fuzz` seeds campaigns with).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

const CASES: usize = 2_000;

/// A document touching every value kind, nested three levels deep.
const SAMPLE: &str =
    r#"{"a":[1,-2,{"b":"x\"y\\z\u00e9\ud83d\ude00"}],"c":true,"d":null,"e":-0.5e-3,"f":{}}"#;

fn random_string(rng: &mut SplitMix64) -> String {
    const EXTRA: &[char] = &['"', '\\', '/', 'a', 'Z', ' ', '\u{7f}', 'ü', '—', '\u{ffff}', '😀'];
    let len = rng.below(24);
    (0..len)
        .map(|_| match rng.below(4) {
            // Every control character below 0x20.
            0 => char::from(rng.below(0x20) as u8),
            1 => EXTRA[rng.below(EXTRA.len())],
            // Any scalar value, non-BMP included (surrogates are not chars).
            2 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{10ffff}'),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

#[test]
fn escape_then_parse_round_trips_random_strings() {
    let mut rng = SplitMix64(0x00C0_DEC0);
    let fixed = ["", "unknown cmd `\u{7}`", "job 1 strike 1: bad \"x\"", "C:\\fw\\\"a\".evfw"];
    let random = (0..CASES).map(|_| random_string(&mut rng));
    for text in fixed.into_iter().map(str::to_string).chain(random) {
        let line = format!("\"{}\"", escape(&text));
        assert_eq!(parse(&line), Ok(Value::Str(text.clone())), "{line:?}");
        assert!(line.bytes().all(|b| b >= 0x20), "raw control byte in {line:?}");
    }
}

#[test]
fn parses_nested_values() {
    let value = parse(SAMPLE).unwrap();
    assert_eq!(value.get("c"), Some(&Value::Bool(true)));
    assert_eq!(value.get("d"), Some(&Value::Null));
    assert_eq!(value.get("e").and_then(Value::as_f64), Some(-0.0005));
    assert_eq!(value.get("f").and_then(Value::as_object), Some(&[][..]));
    let items = value.get("a").and_then(Value::as_array).unwrap();
    assert_eq!(items[0], Value::Int(1));
    assert_eq!(items[1].as_i64(), Some(-2));
    assert_eq!(items[2].get("b").and_then(Value::as_str), Some("x\"y\\zé😀"));
    assert_eq!(value.as_object().map(|fields| fields[0].0.as_str()), Some("a"), "document order");
}

#[test]
fn parses_escapes_and_unicode() {
    let value = parse(r#""a\"b\\c\nd — ü \/\b\f\r\t\u0001\u00FC\uD834\uDD1E""#).unwrap();
    assert_eq!(value.as_str(), Some("a\"b\\c\nd — ü /\u{8}\u{c}\r\t\u{1}ü𝄞"));
}

#[test]
fn numbers_keep_integers_exact() {
    assert_eq!(parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
    assert_eq!(parse("-1").unwrap().as_i64(), Some(-1));
    assert_eq!(parse("-5").unwrap(), Value::Int(-5));
    assert_eq!(parse("-5").unwrap().as_u64(), None);
    assert_eq!(parse("4294967296").unwrap().as_u32(), None);
    assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
    assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
    assert_eq!(parse("1E3").unwrap(), Value::Float(1000.0));
    assert_eq!(parse("1.0").unwrap().as_u64(), None, "a fraction is never an integer");
}

#[test]
fn get_returns_the_last_duplicate_key() {
    let value = parse(r#"{"k":1,"other":2,"k":3}"#).unwrap();
    assert_eq!(value.get("k"), Some(&Value::Int(3)));
    assert_eq!(value.get("missing"), None);
    assert_eq!(Value::Int(1).get("k"), None);
}

#[test]
fn rejects_malformed_input() {
    let bad = [
        "",
        " ",
        "{",
        "{\"a\":}",
        "[1,]",
        "[1 2]",
        "{\"a\":1}x",
        "{1:2}",
        "{\"a\" 1}",
        "tru",
        "nul",
        "01",
        "1.",
        ".5",
        "+1",
        "-",
        "1e",
        "1e+",
        "1e400",
        "123456789012345678901234567890123456789012345",
        "\"abc",
        "\"a\u{1}b\"",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u+123\"",
        "\"\\uD800\"",
        "\"\\uD800\\u0041\"",
        "\"\\uDC00\"",
        "\u{c}1",
        "[1, 2,",
    ];
    for text in bad {
        assert!(parse(text).is_err(), "{text:?} should fail");
    }
}

#[test]
fn parse_is_total_on_random_bytes() {
    let mut rng = SplitMix64(7);
    for _ in 0..CASES {
        let len = rng.below(48);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = parse(&String::from_utf8_lossy(&bytes));
        // Bias toward structure so the deeper branches are reached too.
        const ALPHABET: &[u8] = b"{}[]\",:\\u0123456789-+.eEtrufalsn \n";
        let text: String = (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len())] as char).collect();
        let _ = parse(&text);
    }
}

#[test]
fn parse_is_total_on_truncated_and_mutated_documents() {
    for end in 0..SAMPLE.len() {
        if let Some(prefix) = SAMPLE.get(..end) {
            assert!(parse(prefix).is_err(), "proper prefix {prefix:?} parsed");
        }
    }
    let mut rng = SplitMix64(11);
    for _ in 0..CASES {
        let mut bytes = SAMPLE.as_bytes().to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(bytes.len());
            match rng.below(3) {
                0 => bytes[at] = rng.next() as u8,
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, b"{[\"\\,:}]"[rng.below(8)]),
            }
        }
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn nesting_depth_is_bounded() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    // A hostile line must fail cleanly on a small stack, not overflow it.
    let small_stack = std::thread::Builder::new().stack_size(256 * 1024);
    let results = small_stack
        .spawn(|| {
            let arrays = parse(&"[".repeat(1 << 20)).is_err();
            let objects = parse(&"{\"a\":".repeat(1 << 18)).is_err();
            (arrays, objects)
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(results, (true, true));
}

//! String round-trips through the vendored JSON front end: multi-byte
//! UTF-8 characters of every width and every escape the writer emits
//! must come back unchanged, and escapes written by other producers
//! must decode.

fn round_trip(s: &str) -> String {
    let json = serde_json::to_string(&s.to_string()).expect("serializes");
    serde_json::from_str::<String>(&json).expect("parses")
}

#[test]
fn multi_byte_and_escaped_strings_round_trip() {
    for s in [
        "",
        "plain ascii",
        "é ü ß",         // two-byte characters
        "→ ⟂ 中文 三角", // three-byte characters
        "𝄞 🦀 😀",       // four-byte characters
        "quote \" backslash \\ slash /",
        "line\nreturn\rtab\tbell\u{8}feed\u{c}",
        "\u{1}\u{1f} control characters",
        "mixed é→𝄞 with \"escapes\"\n and \\ more",
    ] {
        assert_eq!(round_trip(s), s);
    }
}

#[test]
fn foreign_escapes_decode() {
    let parsed: String = serde_json::from_str(r#""\u00e9\u2192 \/ \b\f \"x\"""#).expect("parses");
    assert_eq!(parsed, "é→ / \u{8}\u{c} \"x\"");
}

#[test]
fn long_multi_byte_strings_round_trip() {
    // Long enough that re-validating the remaining input for every
    // character (quadratic) takes seconds; one-character decoding is
    // instant.
    let s: String = "aé→𝄞\"\\\n".chars().cycle().take(1 << 16).collect();
    assert_eq!(round_trip(&s), s);
    let nested = vec![s.clone(), "🦀".repeat(1000)];
    let json = serde_json::to_string(&nested).expect("serializes");
    assert_eq!(serde_json::from_str::<Vec<String>>(&json).expect("parses"), nested);
}

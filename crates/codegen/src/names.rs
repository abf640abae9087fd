//! Identifier-case and path utilities.

/// `dna_list` → `DnaList`; `HPCVector` stays `HPCVector`-ish (already
/// camel segments survive). A name that comes out as `Self` or as a type
/// or trait of Rust's prelude gets a trailing `_`, as keywords do: the
/// emitted code names those unqualified, so an item of the same name would
/// shadow them.
pub fn camel(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    let mut upper_next = true;
    for ch in name.chars() {
        if ch == '_' {
            upper_next = true;
        } else if upper_next {
            out.extend(ch.to_uppercase());
            upper_next = false;
        } else {
            out.push(ch);
        }
    }
    if out == "Self" || PRELUDE_TYPES.contains(&out.as_str()) {
        out.push('_');
    }
    out
}

/// The types and traits Rust's prelude brings into every module.
const PRELUDE_TYPES: &[&str] = &[
    "AsMut",
    "AsRef",
    "Box",
    "Clone",
    "Copy",
    "Default",
    "DoubleEndedIterator",
    "Drop",
    "Eq",
    "ExactSizeIterator",
    "Extend",
    "Fn",
    "FnMut",
    "FnOnce",
    "From",
    "Into",
    "IntoIterator",
    "Iterator",
    "Option",
    "Ord",
    "PartialEq",
    "PartialOrd",
    "Result",
    "Send",
    "Sized",
    "String",
    "Sync",
    "ToOwned",
    "ToString",
    "Vec",
];

/// `DnaList` → `dna_list`; keeps already-snake names intact. Leading
/// underscores (the CORBA `_get_`/`_set_` attribute convention) are
/// dropped on the Rust side; the wire name keeps them.
pub fn snake(name: &str) -> String {
    escape_keyword(snake_raw(name).trim_start_matches('_'))
}

/// Like [`snake`] but without keyword escaping — for names that get a
/// suffix appended (a suffixed name can never be a keyword).
pub fn snake_raw(name: &str) -> String {
    let name = name.trim_start_matches('_');
    let mut out = String::with_capacity(name.len() + 4);
    let mut prev_lower = false;
    for ch in name.chars() {
        if ch.is_uppercase() {
            if prev_lower {
                out.push('_');
            }
            out.extend(ch.to_lowercase());
            prev_lower = false;
        } else {
            prev_lower = ch.is_lowercase() || ch.is_numeric();
            out.push(ch);
        }
    }
    out
}

/// SCREAMING_SNAKE for constants.
pub fn upper(name: &str) -> String {
    snake(name).to_uppercase()
}

/// The Rust words an IDL identifier may not be emitted as.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "else", "enum", "extern", "false", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while", "async", "await", "dyn", "box", "try", "yield",
    // Reserved for future use: no valid item may bear these names either.
    "abstract", "become", "do", "final", "macro", "override", "priv", "typeof", "unsized",
    "virtual",
];

/// Rename identifiers that collide with Rust keywords and reserved words.
pub fn escape_keyword(name: &str) -> String {
    if KEYWORDS.contains(&name) {
        format!("{name}_")
    } else {
        name.to_string()
    }
}

/// The Rust path from inside module `from` to item `name` in module `to`,
/// both given as module paths relative to the generated root.
pub fn relative_path(from: &[String], to: &[String], name: &str) -> String {
    let common = from.iter().zip(to.iter()).take_while(|(a, b)| a == b).count();
    let mut out = String::new();
    for _ in common..from.len() {
        out.push_str("super::");
    }
    for seg in &to[common..] {
        out.push_str(&snake(seg));
        out.push_str("::");
    }
    out.push_str(name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camel_cases() {
        assert_eq!(camel("dna_list"), "DnaList");
        assert_eq!(camel("direct"), "Direct");
        assert_eq!(camel("field_operations"), "FieldOperations");
        assert_eq!(camel("x"), "X");
    }

    #[test]
    fn self_and_prelude_names_are_escaped() {
        assert_eq!(camel("self"), "Self_");
        assert_eq!(camel("Self"), "Self_");
        for name in ["Result", "Option", "Vec", "String", "Box", "result", "option", "vec", "box"] {
            assert_eq!(
                camel(name),
                format!("{}_", camel(&name.to_lowercase()).trim_end_matches('_'))
            );
        }
        assert_eq!(camel("results"), "Results");
        assert_eq!(camel("some"), "Some", "a value-only prelude name shadows no type");
    }

    #[test]
    fn snake_cases() {
        assert_eq!(snake("DnaList"), "dna_list");
        assert_eq!(snake("solve"), "solve");
        assert_eq!(snake("match"), "match_");
        assert_eq!(snake("Type"), "type_");
    }

    #[test]
    fn reserved_words_are_escaped() {
        for word in [
            "abstract", "become", "do", "final", "macro", "override", "priv", "typeof", "unsized",
            "virtual",
        ] {
            assert_eq!(snake(word), format!("{word}_"));
        }
    }

    #[test]
    fn upper_cases() {
        assert_eq!(upper("N"), "N");
        assert_eq!(upper("maxSize"), "MAX_SIZE");
    }

    #[test]
    fn relative_paths() {
        let root: Vec<String> = vec![];
        let a = vec!["a".to_string()];
        let ab = vec!["a".to_string(), "b".to_string()];
        let c = vec!["c".to_string()];
        assert_eq!(relative_path(&root, &root, "T"), "T");
        assert_eq!(relative_path(&root, &a, "T"), "a::T");
        assert_eq!(relative_path(&a, &root, "T"), "super::T");
        assert_eq!(relative_path(&ab, &a, "T"), "super::T");
        assert_eq!(relative_path(&a, &ab, "T"), "b::T");
        assert_eq!(relative_path(&a, &c, "T"), "super::c::T");
    }
}

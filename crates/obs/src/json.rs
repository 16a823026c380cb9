//! A deliberately small JSON reader shared by the trace validator and the
//! repo benchmark's manifest check: objects, arrays, strings without
//! escapes, numbers, bools, null.
//!
//! Errors are plain `String`s so the crate stays dependency-free; callers
//! wrap them in their own error types.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number (all JSON numbers read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required string member.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing string field {key:?}")),
        }
    }

    /// Required numeric member.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing numeric field {key:?}")),
        }
    }
}

/// Parses a single JSON value (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Json::Null),
        Some(_) => number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("expected {word} at byte {pos}", pos = *pos))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let start = *pos;
    while *pos < b.len() && b[*pos] != b'"' {
        if b[*pos] == b'\\' {
            return Err("string escapes are not supported".to_string());
        }
        *pos += 1;
    }
    if *pos >= b.len() {
        return Err("unterminated string".to_string());
    }
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| "non-UTF-8 string".to_string())?
        .to_string();
    *pos += 1; // closing quote
    Ok(s)
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected , or ] at byte {pos}", pos = *pos)),
        }
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected key at byte {pos}", pos = *pos));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected , or }} at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let j = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(
            j.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Str("x".into())]))
        );
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(j.get("b").unwrap().str_field("c"), Err("missing string field \"c\"".into()));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}

//! A flat JSON object writer: enough for the one stats line each process
//! hands back to `run.py`, without a serialization dependency.

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Adds a number. Non-finite values become 0, which JSON can carry.
    pub fn num(&mut self, key: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((key.to_string(), format!("{value:?}")));
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, value: u64) {
        self.0.push((key.to_string(), value.to_string()));
    }

    /// Adds a string (keys and values here are plain ASCII identifiers).
    pub fn str(&mut self, key: &str, value: &str) {
        self.0.push((key.to_string(), format!("{value:?}")));
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, value: &Obj) {
        self.0.push((key.to_string(), value.render()));
    }

    /// Adds an array of objects.
    pub fn list(&mut self, key: &str, values: &[Obj]) {
        let items: Vec<String> = values.iter().map(Obj::render).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{k:?}:{v}");
        }
        s.push('}');
        s
    }
}

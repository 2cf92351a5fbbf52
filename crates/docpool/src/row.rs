//! Rows and their columns: one value per `family:qualifier` column.

use std::sync::Arc;

/// One column of a row: `(family, qualifier, value)`.
type Column = (Box<str>, Box<str>, Arc<[u8]>);

/// A row: one value per `(family, qualifier)` column. The table stores each
/// row behind an `Arc`, and a scan hands that `Arc` out: a reader holds the
/// row as it was when read, and a later put to it writes a copy.
#[derive(Clone, Debug, Default)]
pub struct Row {
    /// Sorted by family, then qualifier.
    cells: Vec<Column>,
}

impl Row {
    /// Set a column's value.
    pub(crate) fn put(&mut self, family: &str, qualifier: &str, value: Arc<[u8]>) {
        let at = self.cells.binary_search_by(|(f, q, _)| (&**f, &**q).cmp(&(family, qualifier)));
        match at {
            Ok(at) => self.cells[at].2 = value,
            Err(at) => self.cells.insert(at, (family.into(), qualifier.into(), value)),
        }
    }

    /// A column's value.
    pub fn get(&self, family: &str, qualifier: &str) -> Option<&Arc<[u8]>> {
        let mut cells = self.cells.iter();
        cells.find(|(f, q, _)| **f == *family && **q == *qualifier).map(|(_, _, value)| value)
    }

    /// A column's value decoded as UTF-8 (lossless only if it was UTF-8).
    pub fn get_str(&self, family: &str, qualifier: &str) -> Option<String> {
        self.get(family, qualifier).map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// Every column as `(family, qualifier, value)`, in order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&str, &str, &Arc<[u8]>)> {
        self.cells.iter().map(|(f, q, value)| (&**f, &**q, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes())
    }

    #[test]
    fn put_get_overwrites_in_place() {
        let mut r = Row::default();
        r.put("doc", "xml", b("<a/>"));
        assert_eq!(r.get("doc", "xml"), Some(&b("<a/>")));
        assert!(r.get("doc", "missing").is_none());
        assert!(r.get("nofam", "xml").is_none());
        r.put("doc", "xml", b("<b/>"));
        assert_eq!(r.get_str("doc", "xml").unwrap(), "<b/>");
        assert_eq!(r.columns().count(), 1, "one value per column");
    }

    #[test]
    fn columns_iterate_in_order() {
        let mut r = Row::default();
        r.put("b", "y", b("2"));
        r.put("a", "x", b("1"));
        r.put("a", "w", b("0"));
        let cols: Vec<(&str, &str)> = r.columns().map(|(f, q, _)| (f, q)).collect();
        assert_eq!(cols, [("a", "w"), ("a", "x"), ("b", "y")]);
    }
}

//! Well-known vocabulary IRIs used throughout the data lake.

/// RDF core vocabulary.
pub mod rdf {
    /// `rdf:type`.
    pub const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
}

/// XML Schema datatypes.
pub mod xsd {
    /// `xsd:string`.
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    /// `xsd:integer`.
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:decimal`.
    pub const DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
    /// `xsd:double`.
    pub const DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    /// `xsd:boolean`.
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    /// `xsd:date`.
    pub const DATE: &str = "http://www.w3.org/2001/XMLSchema#date";

    /// True when `dt` denotes `xsd:integer` or a type derived from it.
    pub(crate) fn is_integer(dt: &str) -> bool {
        dt == INTEGER
            || dt == "http://www.w3.org/2001/XMLSchema#int"
            || dt == "http://www.w3.org/2001/XMLSchema#long"
    }

    /// True when `dt` denotes a numeric XSD datatype.
    pub fn is_numeric(dt: &str) -> bool {
        matches!(dt, DECIMAL | DOUBLE)
            || dt == "http://www.w3.org/2001/XMLSchema#float"
            || is_integer(dt)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn numeric_datatypes() {
        assert!(super::xsd::is_numeric(super::xsd::INTEGER));
        assert!(super::xsd::is_numeric(super::xsd::DOUBLE));
        assert!(!super::xsd::is_numeric(super::xsd::STRING));
    }
}

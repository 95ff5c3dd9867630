//! Table 1 of the paper: the simulation-parameter glossary, as data.

use crate::ScenarioConfig;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// The paper's symbol (D, C, S₁, S₂, M, N, t_i, t_m, —).
    pub symbol: &'static str,
    /// Description.
    pub description: &'static str,
    /// Distribution ("fixed" or "exp.").
    pub distribution: &'static str,
}

/// The rows of Table 1, in the paper's order.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            symbol: "D",
            description: "Number of Nodes",
            distribution: "fixed",
        },
        Table1Row {
            symbol: "C",
            description: "Number of clients",
            distribution: "fixed",
        },
        Table1Row {
            symbol: "S1",
            description: "Number of 1st layer servers",
            distribution: "fixed",
        },
        Table1Row {
            symbol: "S2",
            description: "Number of 2nd layer servers",
            distribution: "fixed",
        },
        Table1Row {
            symbol: "M",
            description: "Migration duration for servers",
            distribution: "fixed",
        },
        Table1Row {
            symbol: "N",
            description: "Number of calls in a move-block",
            distribution: "exp.",
        },
        Table1Row {
            symbol: "t_i",
            description: "Time between two calls in a block",
            distribution: "exp.",
        },
        Table1Row {
            symbol: "t_m",
            description: "Time between two move blocks",
            distribution: "exp.",
        },
        Table1Row {
            symbol: "-",
            description: "Duration of a remote call",
            distribution: "exp. (1)",
        },
    ]
}

/// The value a scenario assigns to a Table 1 symbol, rendered for display.
#[must_use]
pub fn value_for(config: &ScenarioConfig, symbol: &str) -> String {
    match symbol {
        "D" => config.nodes.to_string(),
        "C" => config.clients.to_string(),
        "S1" => config.servers1.to_string(),
        "S2" => config.servers2.to_string(),
        "M" => format!("{}", config.migration_duration),
        "N" => format!("mean({})", config.mean_calls),
        "t_i" => format!("mean({})", config.mean_think),
        "t_m" => format!("mean({})", config.mean_gap),
        "-" => "mean(1)".to_owned(),
        other => format!("<unknown symbol {other}>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_nine_rows_like_the_paper() {
        assert_eq!(table1().len(), 9);
    }

    #[test]
    fn symbols_are_unique() {
        let rows = table1();
        let mut symbols: Vec<&str> = rows.iter().map(|r| r.symbol).collect();
        symbols.sort_unstable();
        symbols.dedup();
        assert_eq!(symbols.len(), rows.len());
    }

    #[test]
    fn values_render_for_every_symbol() {
        let cfg = ScenarioConfig::fig16(4);
        for row in table1() {
            let v = value_for(&cfg, row.symbol);
            assert!(!v.contains("unknown"), "{}: {v}", row.symbol);
        }
        assert_eq!(value_for(&cfg, "D"), "24");
        assert_eq!(value_for(&cfg, "N"), "mean(6)");
    }

    #[test]
    fn unknown_symbol_is_flagged() {
        let cfg = ScenarioConfig::fig8(1.0);
        assert!(value_for(&cfg, "X").contains("unknown"));
    }
}

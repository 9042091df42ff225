//! Dated triple extraction table (experiment E3, Figure 3): the paper's
//! appendix shows "example triples extracted from Wall Street Journal
//! Articles using Semantic Role Labeling. The first column shows dates on
//! which the triples were published." This reproduces that table from the
//! synthetic stream.
//!
//! ```sh
//! cargo run --release --example extraction_table
//! ```
//!
//! CI diffs the output against `examples/extraction_table.golden`; a change
//! that moves a row must regenerate the golden file and say why.

use nous_corpus::articles::render_date;
use nous_corpus::Preset;
use nous_text::ner::{EntityType, Gazetteer};
use nous_text::openie::ExtractorConfig;

fn main() {
    let (world, _kb, articles) = Preset::Demo.build();
    // Gazetteer from the curated alias tables, as the pipeline uses.
    let mut gaz = Gazetteer::new();
    for e in &world.entities {
        let ty = match e.kind {
            nous_corpus::world::Kind::Company => EntityType::Organization,
            nous_corpus::world::Kind::Person => EntityType::Person,
            nous_corpus::world::Kind::Location => EntityType::Location,
            nous_corpus::world::Kind::Product => EntityType::Product,
        };
        for a in &e.aliases {
            gaz.insert(a, ty);
        }
    }

    println!(
        "{:<14}  {:<26}  {:<14}  {:<26}  {:<10}  CONF",
        "DATE", "SUBJECT (A0)", "PREDICATE", "OBJECT (A1)", "TIME/LOC"
    );
    println!("{}", "-".repeat(110));
    let cfg = ExtractorConfig::default();
    let mut rows = 0;
    for article in articles.iter().step_by(23) {
        let doc = nous_text::analyze(&article.body, &gaz, &cfg);
        for s in &doc.sentences {
            for f in &s.frames {
                let adjunct = f
                    .time
                    .clone()
                    .or_else(|| f.location.clone())
                    .unwrap_or_default();
                println!(
                    "{:<14}  {:<26}  {:<14}  {:<26}  {:<10}  {:.2}",
                    render_date(article.day),
                    truncate(&f.a0, 26),
                    truncate(&f.predicate, 14),
                    truncate(&f.a1, 26),
                    truncate(&adjunct, 10),
                    f.confidence
                );
                rows += 1;
                if rows >= 25 {
                    println!("\n(25 rows shown; the full stream yields thousands)");
                    return;
                }
            }
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}

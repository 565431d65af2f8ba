//! The paper's Section 3 example: object-oriented C with subtype
//! polymorphism, dynamic dispatch, and checked downcasts. Shows how the
//! inference classifies every cast and which pointers carry RTTI.
//!
//! ```sh
//! cargo run -p ccured-examples --bin oop_rtti
//! ```

use ccured::Curer;
use ccured_cil::ir::CheckKind;
use ccured_rt::{ExecMode, Interp};

const PROGRAM: &str = r#"
extern int printf(char *fmt, ...);

struct Figure { double (*area)(struct Figure *obj); int kind; };
struct Circle { double (*area)(struct Figure *obj); int kind; int radius; };
struct Square { double (*area)(struct Figure *obj); int kind; int side; };

double circle_area(struct Figure *obj) {
    struct Circle *cir = (struct Circle *)obj;   /* checked downcast */
    return 3 * cir->radius * cir->radius;
}

double square_area(struct Figure *obj) {
    struct Square *sq = (struct Square *)obj;    /* checked downcast */
    return (double)(sq->side * sq->side);
}

int main(void) {
    struct Circle c;
    c.area = circle_area; c.kind = 1; c.radius = 2;
    struct Square s;
    s.area = square_area; s.kind = 2; s.side = 3;

    struct Figure *figs[2];
    figs[0] = (struct Figure *)&c;               /* upcasts */
    figs[1] = (struct Figure *)&s;

    double total = 0.0;
    for (int i = 0; i < 2; i++)
        total = total + figs[i]->area(figs[i]);  /* dynamic dispatch */
    printf("total area = %f\n", total);
    return total > 20.0 ? 0 : 1;
}
"#;

fn main() {
    let cured = Curer::new().cure_source(PROGRAM).expect("cure");
    let census = cured.report.census;
    println!(
        "cast census: {} upcasts, {} downcasts, {} bad",
        census.upcast, census.downcast, census.bad
    );
    let (sf, sq, w, rt) = cured.report.kind_counts.percentages();
    println!("pointer kinds: {sf}% SAFE, {sq}% SEQ, {w}% WILD, {rt}% RTTI");
    println!(
        "subtype hierarchy: {} nodes, depth {}",
        cured.hierarchy.len(),
        cured.hierarchy.max_depth()
    );

    let mut interp = Interp::new(&cured.program, ExecMode::cured(&cured));
    let exit = interp.run().expect("run");
    print!("{}", String::from_utf8_lossy(interp.output()));
    println!(
        "exit = {exit}; RTTI checks executed: {}",
        interp.counters.checks[CheckKind::Rtti]
    );

    // And the comparison the paper makes: the same program under the
    // original CCured (no physical subtyping, no RTTI) drowns in WILD.
    let old = ccured::Curer::original_ccured()
        .cure_source(PROGRAM)
        .expect("cure");
    let (_, _, w_old, _) = old.report.kind_counts.percentages();
    println!("under the original CCured this program is {w_old}% WILD");
}

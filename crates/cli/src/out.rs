//! Standard output for every command.
//!
//! All of `cbsp`'s stdout goes through [`out!`] and [`outln!`], which
//! write like `print!` and `println!` but drop the text when stdout is
//! closed. A reader that goes away early (`cbsp cross … | head -1`)
//! therefore ends the printing, not the command: it still writes its
//! files and exits 0, where `println!` would panic.

use std::io::Write;

/// Writes `args` to stdout, ignoring a failed write.
pub fn write(args: std::fmt::Arguments<'_>) {
    let _ = std::io::stdout().write_fmt(args);
}

/// `print!` through [`write`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

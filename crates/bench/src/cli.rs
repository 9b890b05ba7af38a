//! Strict command-line parsing shared by the harness binaries.
//!
//! The soak and campaign binaries are run from gate scripts, where a
//! mistyped `--seed x7` or `--seconds 5s` that silently fell back to the
//! default would test a different stream and still pass. Everything the
//! binary does not declare, and every value that does not parse, is an
//! error: [`parse`] prints it with the usage line and exits with
//! status 2.

/// The arguments not yet claimed by a declaration.
#[derive(Debug)]
pub struct Flags {
    rest: Vec<String>,
}

impl Flags {
    /// Claims `name <u64>`; `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is missing or is not a `u64`.
    pub fn value(&mut self, name: &str, default: u64) -> Result<u64, String> {
        let Some(at) = self.rest.iter().position(|a| a == name) else {
            return Ok(default);
        };
        if at + 1 == self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.rest.remove(at + 1);
        self.rest.remove(at);
        raw.parse()
            .map_err(|_| format!("{name} takes an unsigned integer, not `{raw}`"))
    }

    /// Claims the bare switch `name`; whether it was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|at| self.rest.remove(at)).is_some()
    }

    /// Claims every argument that is not a `-flag`, in order.
    pub fn positionals(&mut self) -> Vec<String> {
        let (flags, names) = std::mem::take(&mut self.rest)
            .into_iter()
            .partition(|a| a.starts_with('-'));
        self.rest = flags;
        names
    }

    fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(a) if a.starts_with('-') => Err(format!("unknown or repeated flag `{a}`")),
            Some(a) => Err(format!("unexpected argument `{a}`")),
        }
    }
}

fn parse_args<T>(
    args: impl IntoIterator<Item = String>,
    declare: impl FnOnce(&mut Flags) -> Result<T, String>,
) -> Result<T, String> {
    let mut flags = Flags {
        rest: args.into_iter().collect(),
    };
    let parsed = declare(&mut flags)?;
    flags.finish()?;
    Ok(parsed)
}

/// Parses the process's arguments through `declare`, which claims each
/// flag the binary accepts; on an unparseable value or anything left
/// unclaimed, prints the error and `usage` to stderr and exits 2.
pub fn parse<T>(usage: &str, declare: impl FnOnce(&mut Flags) -> Result<T, String>) -> T {
    parse_args(std::env::args().skip(1), declare).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak(args: &[&str]) -> Result<(u64, u64, bool), String> {
        parse_args(args.iter().map(|a| (*a).to_owned()), |f| {
            Ok((
                f.value("--seed", 2022)?,
                f.value("--seconds", 10)?,
                f.switch("--sparse"),
            ))
        })
    }

    #[test]
    fn declared_flags_parse_in_any_order_with_defaults() {
        assert_eq!(soak(&[]), Ok((2022, 10, false)));
        assert_eq!(
            soak(&["--sparse", "--seconds", "5", "--seed", "7"]),
            Ok((7, 5, true))
        );
    }

    #[test]
    fn a_bad_value_is_an_error_not_the_default() {
        assert!(soak(&["--seed", "x7"]).unwrap_err().contains("`x7`"));
        assert!(soak(&["--seconds", "5s"]).unwrap_err().contains("`5s`"));
        assert!(soak(&["--seed", "-1"]).is_err());
        assert!(soak(&["--seed"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn anything_undeclared_is_an_error() {
        assert!(soak(&["--sede", "7"]).unwrap_err().contains("`--sede`"));
        assert!(soak(&["--seed", "7", "--seed", "8"])
            .unwrap_err()
            .contains("repeated"));
        assert!(soak(&["7"]).unwrap_err().contains("unexpected argument"));
    }

    #[test]
    fn positionals_are_claimed_in_order_and_leave_flags_behind() {
        let names = |args: &[&str]| {
            parse_args(
                args.iter().map(|a| (*a).to_owned()),
                |f| Ok(f.positionals()),
            )
        };
        assert_eq!(
            names(&["fig09_micro", "table4_apps"]),
            Ok(vec!["fig09_micro".to_owned(), "table4_apps".to_owned()])
        );
        assert!(names(&["all", "--validate"]).is_err());
    }
}

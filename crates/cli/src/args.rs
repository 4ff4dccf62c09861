//! Minimal dependency-free flag parsing for the `splitmfg` binary.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    flags: HashMap<String, String>,
}

/// Errors from flag parsing and typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseArgsError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` had no value.
    MissingValue(String),
    /// A token after the subcommand that is neither a `--flag` nor a
    /// flag's value.
    UnexpectedArgument(String),
    /// A flag value failed to parse as the requested type.
    BadValue {
        /// Flag name without dashes.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// A required flag is absent.
    MissingFlag(String),
    /// A flag the subcommand does not understand.
    UnknownFlag {
        /// Flag name without dashes.
        flag: String,
        /// The subcommand that rejected it.
        command: String,
    },
}

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseArgsError::MissingCommand => write!(f, "no subcommand given (try 'help')"),
            ParseArgsError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ParseArgsError::UnexpectedArgument(a) => {
                write!(
                    f,
                    "unexpected argument '{a}' (flags take the form --name value)"
                )
            }
            ParseArgsError::BadValue { flag, value } => {
                write!(f, "flag --{flag} has malformed value '{value}'")
            }
            ParseArgsError::MissingFlag(k) => write!(f, "required flag --{k} missing"),
            ParseArgsError::UnknownFlag { flag, command } => {
                write!(f, "unknown flag --{flag} for '{command}' (try 'help')")
            }
        }
    }
}

impl std::error::Error for ParseArgsError {}

impl Args {
    /// Parses `argv[1..]`-style tokens.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when the command is missing, a flag is
    /// dangling, or a stray token is neither a flag nor a flag's value.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ParseArgsError> {
        let mut it = tokens.into_iter().peekable();
        let command = it.next().ok_or(ParseArgsError::MissingCommand)?;
        let mut flags = HashMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ParseArgsError::UnexpectedArgument(tok));
            };
            let value = it
                .next()
                .ok_or_else(|| ParseArgsError::MissingValue(name.to_owned()))?;
            flags.insert(name.to_owned(), value);
        }
        Ok(Self { command, flags })
    }

    /// Typed flag access with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] if present but malformed.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ParseArgsError::BadValue {
                flag: flag.to_owned(),
                value: v.clone(),
            }),
        }
    }

    /// Required typed flag.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::MissingFlag`] or
    /// [`ParseArgsError::BadValue`].
    pub fn require<T: std::str::FromStr>(&self, flag: &str) -> Result<T, ParseArgsError> {
        let v = self
            .flags
            .get(flag)
            .ok_or_else(|| ParseArgsError::MissingFlag(flag.to_owned()))?;
        v.parse().map_err(|_| ParseArgsError::BadValue {
            flag: flag.to_owned(),
            value: v.clone(),
        })
    }

    /// Raw string flag.
    pub fn get_str(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Rejects any flag not in `allowed` (typo defence: `--treads 4` must
    /// be an error, not a silently ignored token).
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::UnknownFlag`] naming the
    /// lexicographically first offender, for deterministic messages.
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), ParseArgsError> {
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|k| !allowed.contains(k))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(flag) => Err(ParseArgsError::UnknownFlag {
                flag: (*flag).to_owned(),
                command: self.command.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ParseArgsError> {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["gen", "--scale", "0.2", "--out", "/tmp/x"]).expect("parses");
        assert_eq!(a.command, "gen");
        assert_eq!(a.get_or("scale", 1.0).expect("ok"), 0.2);
        assert_eq!(a.get_str("out"), Some("/tmp/x"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&["attack"]).expect("parses");
        assert_eq!(a.get_or("split", 8u8).expect("ok"), 8);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse(&[]), Err(ParseArgsError::MissingCommand));
    }

    #[test]
    fn dangling_flag_is_an_error() {
        assert_eq!(
            parse(&["gen", "--scale"]),
            Err(ParseArgsError::MissingValue("scale".into()))
        );
    }

    #[test]
    fn stray_positional_token_is_an_error() {
        let err = parse(&["attack", "--dir", "d", "--target", "sb1", "sequential"])
            .expect_err("a stray token must not be dropped");
        assert_eq!(err, ParseArgsError::UnexpectedArgument("sequential".into()));
        assert_eq!(
            err.to_string(),
            "unexpected argument 'sequential' (flags take the form --name value)"
        );
        // A value that merely looks positional is still a flag's value.
        let a = parse(&["attack", "--target", "sequential"]).expect("parses");
        assert_eq!(a.get_str("target"), Some("sequential"));
    }

    #[test]
    fn bad_value_reports_flag_and_value() {
        let a = parse(&["gen", "--scale", "banana"]).expect("parses");
        let err = a.get_or("scale", 1.0).expect_err("malformed");
        assert_eq!(
            err,
            ParseArgsError::BadValue {
                flag: "scale".into(),
                value: "banana".into()
            }
        );
    }

    #[test]
    fn check_known_accepts_allowed_and_names_the_first_offender() {
        let a = parse(&["attack", "--dir", "d", "--zeta", "1", "--alpha", "2"]).expect("parses");
        assert!(a.check_known(&["dir", "zeta", "alpha"]).is_ok());
        assert_eq!(
            a.check_known(&["dir"]),
            Err(ParseArgsError::UnknownFlag {
                flag: "alpha".into(),
                command: "attack".into()
            })
        );
    }

    #[test]
    fn require_distinguishes_missing_from_bad() {
        let a = parse(&["attack", "--target", "sb1"]).expect("parses");
        assert_eq!(a.require::<String>("target").expect("ok"), "sb1");
        assert!(matches!(
            a.require::<u8>("split"),
            Err(ParseArgsError::MissingFlag(_))
        ));
    }
}

"""Exception hierarchy shared by all wordlogic components."""


class WordlogicError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(WordlogicError):
    """A constructed object failed one of its structural checks."""


class FormatError(WordlogicError):
    """A text-format file could not be parsed.

    Carries the offending file and line when known.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class NotAssociative(WordlogicError):
    """Monoid-only operation applied to a non-associative magma."""


class EmptyWord(WordlogicError):
    """Operation requires a nonempty word."""


class CapExceeded(WordlogicError):
    """A configured size cap would be exceeded.

    `required` holds the exact size that was needed, when known.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class NestingCapExceeded(CapExceeded):
    """A formula nests deeper than the evaluator handles."""


class NotCnf(WordlogicError):
    """Grammar is not in Chomsky normal form."""


class LetterOutOfAlphabet(WordlogicError):
    """A word contains a letter outside the language's alphabet."""


class UnknownLetter(WordlogicError):
    """A string contains a character outside the signature's alphabet."""


class RankOutOfRange(WordlogicError):
    """Instance rank outside [0, 2^(n*m*k))."""


class InstanceCapExceeded(CapExceeded):
    """A second-order quantifier would enumerate too many instances."""


class UnboundVariable(WordlogicError):
    """Evaluation hit a variable missing from the assignment."""


class SortMismatch(WordlogicError):
    """A name holds a value of the wrong kind: a position that is not an
    element of the domain, or a relation that is not a set."""


class EmptyDomain(WordlogicError):
    """Quantification or min/max over the empty structure."""


class EmptyRange(WordlogicError):
    """A range flag leaves a command nothing to check."""


class UnknownFragment(WordlogicError):
    """fragment_check got an unrecognized fragment name."""


class NonMonadicNode(WordlogicError):
    """Rewrite requires monadic (arity-1) second-order quantifiers."""


class NestedUnsupported(WordlogicError):
    """Rewrite hit a variable-capture pattern it does not support."""


class NoNeutralLetter(WordlogicError):
    """Operation requires a quantifier language with a neutral letter."""


class FragmentViolation(WordlogicError):
    """Input formula is outside the fragment a translation accepts."""


class NonConstantSignature(WordlogicError):
    """const_rewrite requires a pure constant signature."""


class ExponentCapExceeded(CapExceeded):
    """Exponential-universe translation beyond the configured cap."""


class FormulaSyntaxError(WordlogicError):
    """S-expression formula text could not be parsed.

    Carries 1-based line and column of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownLanguage(WordlogicError):
    """A formula references a language name missing from the registry."""


class ArityMismatch(WordlogicError):
    """A quantifier node has the wrong number of argument formulas."""

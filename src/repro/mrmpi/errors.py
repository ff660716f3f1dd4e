"""Errors raised by the MR-MPI baseline."""

from __future__ import annotations


class MRMPIError(RuntimeError):
    """Base class for MR-MPI failures."""


class PageOverflowError(MRMPIError):
    """Intermediate data exceeded one page where it must fit one.

    MR-MPI's third out-of-core setting: "report an error and terminate
    execution if the intermediate data is larger than a single page";
    ``why`` names another place a page is the limit.
    """

    def __init__(self, what: str, page_size: int,
                 why: str = "the out-of-core mode is ERROR"):
        self.what = what
        self.page_size = page_size
        super().__init__(
            f"{what} exceeded one page ({page_size} bytes) and {why}")

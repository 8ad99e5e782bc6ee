import pytest

from primelattice import (
    DomainError,
    asymptotic_table,
    cycle_decompose,
    factorize,
    landau_bruteforce,
    landau_dp,
    partition_count,
    partitions,
    primes_up_to,
    reduce_ratio,
    verify_order,
)
from primelattice import factorization

# each call used to succeed on the integer a float or bool compares equal to,
# to blame a truncated value, or to end in a bare TypeError
NON_INTEGER_CALLS = {
    "factorize-float": lambda: factorize(2.0),
    "factorize-bool": lambda: factorize(True),
    "factorize-fraction": lambda: factorize(10.5),
    "reduce_ratio-float": lambda: reduce_ratio(2.0, 4),
    "reduce_ratio-bool": lambda: reduce_ratio(6, False),
    "landau_dp-float": lambda: landau_dp(5.0),
    "landau_dp-bool": lambda: landau_dp(True),
    "landau_bruteforce-float": lambda: landau_bruteforce(5.0),
    "asymptotic_table-n_max": lambda: asymptotic_table(10.0),
    "asymptotic_table-step": lambda: asymptotic_table(10, 1.0),
    "partitions-float": lambda: list(partitions(3.0)),
    "partition_count-float": lambda: partition_count(3.0),
    "primes_up_to-fraction": lambda: primes_up_to(10.5),
    "primes_up_to-bool": lambda: primes_up_to(True),
    "primes_up_to-str": lambda: primes_up_to("7"),
    "cycle_decompose-bool": lambda: cycle_decompose([True]),
    "verify_order-bool-entry": lambda: verify_order([True], 1),
    "verify_order-float-m": lambda: verify_order([2, 1], 2.0),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_public_entries_reject_non_integers(call):
    with pytest.raises(DomainError, match="integer"):
        call()


def test_primes_up_to_caps_the_limit_before_sieving(monkeypatch):
    def sieve_must_not_run(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(factorization, "_eratosthenes", sieve_must_not_run)
    with pytest.raises(DomainError, match="10\\*\\*7"):
        primes_up_to(10**100)

"""Tests for the functional TPC-C-flavoured transaction mix."""

import pytest

from repro.apps.mariadb import MariaDBServer
from repro.sim.core import Simulator
from repro.tee.enclave import ExecutionMode


@pytest.fixture()
def server():
    sim = Simulator()
    db = MariaDBServer(sim, buffer_pool_mb=128)
    db.setup_warehouse(1)
    return sim, db


class TestNewOrder:
    def test_order_ids_increment(self, server):
        sim, db = server

        def main():
            first = yield sim.process(db.new_order(1, 1, [1, 2, 3]))
            second = yield sim.process(db.new_order(1, 1, [4]))
            return first, second

        first, second = sim.run_process(main())
        assert (first, second) == (1, 2)

    def test_stock_decremented(self, server):
        sim, db = server

        def main():
            yield sim.process(db.new_order(1, 1, [7, 7]))

        sim.run_process(main())
        assert db.get_row("stock:1:7") == b"quantity=98"

    def test_out_of_stock_rejected(self, server):
        sim, db = server
        db.put_row("stock:1:9", b"quantity=0")

        def main():
            yield sim.process(db.new_order(1, 1, [9]))

        with pytest.raises(ValueError, match="out of stock"):
            sim.run_process(main())

    def test_unknown_district_rejected(self, server):
        sim, db = server

        def main():
            yield sim.process(db.new_order(1, 99, [1]))

        with pytest.raises(KeyError):
            sim.run_process(main())

    def test_order_row_recorded_and_queryable(self, server):
        sim, db = server

        def main():
            order_id = yield sim.process(db.new_order(1, 2, [5, 6]))
            status = yield sim.process(db.order_status(1, 2, order_id))
            return status

        assert sim.run_process(main()) == b"5,6"

    def test_districts_independent(self, server):
        sim, db = server

        def main():
            a = yield sim.process(db.new_order(1, 1, [1]))
            b = yield sim.process(db.new_order(1, 2, [1]))
            return a, b

        assert sim.run_process(main()) == (1, 1)


class TestPayment:
    def test_balance_accumulates(self, server):
        sim, db = server

        def main():
            yield sim.process(db.payment(1, 3, 250))
            balance = yield sim.process(db.payment(1, 3, -100))
            return balance

        assert sim.run_process(main()) == 150
        assert db.get_row("customer:1:3") == b"balance=150"

    def test_unknown_customer_rejected(self, server):
        sim, db = server

        def main():
            yield sim.process(db.payment(1, 999, 10))

        with pytest.raises(KeyError):
            sim.run_process(main())


class TestMixAccounting:
    def test_transactions_counted_and_timed(self, server):
        sim, db = server

        def main():
            yield sim.process(db.new_order(1, 1, [1]))
            yield sim.process(db.payment(1, 1, 10))
            yield sim.process(db.order_status(1, 1, 1))
            return sim.now

        elapsed = sim.run_process(main())
        assert db.requests_served == 3
        assert elapsed == pytest.approx(3 * db.service_seconds)

    def test_rows_stay_encrypted_during_mix(self, server):
        sim, db = server

        def main():
            yield sim.process(db.new_order(1, 1, [1, 2]))

        sim.run_process(main())
        assert db.rows_encrypted_at_rest(b"quantity=")
        assert db.rows_encrypted_at_rest(b"next_order=")

    def test_mix_runs_in_hardware_mode(self):
        sim = Simulator()
        db = MariaDBServer(sim, buffer_pool_mb=256,
                           mode=ExecutionMode.HARDWARE)
        db.setup_warehouse(1)

        def main():
            order_id = yield sim.process(db.new_order(1, 1, [1]))
            return order_id

        assert sim.run_process(main()) == 1

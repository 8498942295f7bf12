"""Page-boundary reclamation: a finished page's realm must be freeable.

Each page builds a cyclic realm graph of a few thousand objects.  The
crawler releases it as the page ends (``repro.dom.bindings.
release_page``: flush the compiled code's inline caches, then a
young-generation collection).  These tests assert reachability, not
GC counts: after the page boundary nothing outside the dead page may
still reach its realm, and after a whole crawl no realm may survive.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.monkey.crawler as crawler_module
from repro.blocking.extension import BrowsingCondition
from repro.browser import Browser
from repro.core.survey import SurveyConfig, run_survey
from repro.minijs import codegen
from repro.minijs.compile import shared_cache
from repro.monkey import AuthenticatedCrawler, SiteCrawler
from repro.net.fetcher import Fetcher
from repro.webgen.sitegen import build_web


@pytest.fixture()
def realm_refs(monkeypatch):
    """Weak references to the realm of every page visited from now on."""
    refs = []
    visit_page = Browser.visit_page

    def tracked(self, *args, **kwargs):
        page = visit_page(self, *args, **kwargs)
        if page.realm is not None:
            refs.append(weakref.ref(page.realm))
        return page

    monkeypatch.setattr(Browser, "visit_page", tracked)
    return refs


@pytest.fixture()
def no_automatic_gc():
    """Keep the collector's own collections out of the test.

    An automatic collection during a page can promote part of that
    page's realm into the oldest generation, which only a full
    collection walks; whether one happens depends on allocation
    counts left by earlier tests.  With them off, every object of a
    page is still young when the page ends, so a realm that survives
    release_page() is one that something outside the page still
    reaches.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _alive(refs):
    return [ref for ref in refs if ref() is not None]


def test_page_boundary_frees_the_realm(
    registry, realm_refs, no_automatic_gc, monkeypatch
):
    web = build_web(registry, n_sites=6, seed=8)
    boundaries = []
    release_page = crawler_module.release_page

    def checked_release():
        release_page()
        boundaries.append(
            (len(codegen._DIRTY_ICS), len(realm_refs),
             len(_alive(realm_refs)))
        )

    monkeypatch.setattr(crawler_module, "release_page", checked_release)
    crawler = SiteCrawler(Browser(registry, Fetcher(web)))
    for site in list(web.sites.values())[:3]:
        crawler.visit_site(site.domain, 1, seed=5)
    assert len(boundaries) > 3
    assert realm_refs, "the crawl built no realm"
    for dirty, visited, alive in boundaries:
        assert dirty == 0  # no inline-cache site pins the dead page
        assert alive == 0, "%d of %d realms outlived their page" % (
            alive, visited)


def test_authenticated_pages_are_released(
    registry, realm_refs, no_automatic_gc
):
    web = build_web(registry, n_sites=250, seed=99)
    site = next(s for s in web.sites.values() if s.plan.gated)
    browser = Browser(registry, Fetcher(web))
    open_result = SiteCrawler(browser).visit_site(site.domain, 1, seed=0)
    measurement = AuthenticatedCrawler(browser).measure(
        site.domain, site.plan.credentials, open_result
    )
    assert measurement.logged_in
    # Login page, the crawl, and the account page: each was released
    # as it ended, with no full collection anywhere.
    assert len(realm_refs) > 2
    assert not codegen._DIRTY_ICS
    assert not _alive(realm_refs)


def test_no_realm_survives_a_crawl_with_a_broken_bundle(
    registry, realm_refs
):
    # Site 4 of this web ships a bundle with a fatal syntax error, so
    # its pages hit the compile cache's recorded error again and again.
    web = build_web(registry, n_sites=12, seed=8)
    assert any(
        s.plan.failure_mode == "syntax-error" for s in web.sites.values()
    )
    error_hits = shared_cache().error_hits
    run_survey(
        web, registry,
        SurveyConfig(conditions=(BrowsingCondition.DEFAULT,),
                     visits_per_site=2, seed=3),
    )
    assert shared_cache().error_hits > error_hits
    gc.collect()
    assert realm_refs
    assert not _alive(realm_refs)

"""Per-repository analysis and population aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codeanalysis.language import detect_language
from repro.codeanalysis.patterns import PatternHit, find_check_hits

#: The languages whose check APIs the paper modelled (Table 3).
ANALYZED_LANGUAGES = ("JavaScript", "Python")


@dataclass
class RepoAnalysis:
    """Result of analyzing one repository's source files."""

    bot_name: str
    link_valid: bool
    main_language: str | None = None
    has_source_code: bool = False
    performs_check: bool = False
    hits: list[PatternHit] = field(default_factory=list)

    @property
    def analyzed(self) -> bool:
        """Whether this repo is in the analyzed (JS/Python) population."""
        return self.has_source_code and self.main_language in ANALYZED_LANGUAGES


class CodeAnalyzer:
    """Classify repositories as check-performing or not."""

    def analyze_repo(
        self,
        bot_name: str,
        files: dict[str, str],
        link_valid: bool = True,
        main_language: str | None = None,
    ) -> RepoAnalysis:
        """Analyze one repository.

        ``main_language`` comes from the repository page when the scraper
        saw one; otherwise it is inferred from the files.
        """
        if not link_valid:
            return RepoAnalysis(bot_name=bot_name, link_valid=False)
        language = main_language or detect_language(files)
        has_source = language is not None
        analysis = RepoAnalysis(
            bot_name=bot_name,
            link_valid=True,
            main_language=language,
            has_source_code=has_source,
        )
        if has_source and language in ANALYZED_LANGUAGES:
            analysis.hits = find_check_hits(files, language)
            analysis.performs_check = bool(analysis.hits)
        return analysis
